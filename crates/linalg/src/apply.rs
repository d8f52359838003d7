//! Application of a generator matrix to real data buffers.
//!
//! An erasure code's encode/decode is the product of a generator (or
//! inverse) matrix with a stack of input stripes. These helpers perform
//! that product over `&[u8]` stripes, optionally fanning output rows across
//! the persistent [`crate::pool`] workers — the stand-in for the ISA-L SIMD
//! kernels used by the paper's prototype (§VI).
//!
//! # Cache blocking
//!
//! The product is computed tile-by-tile: the stripe is cut into column
//! chunks sized so that one chunk of every input plus one output tile fit
//! in L1/L2 (see [`tile_len`]), and *all* matrix rows are swept before
//! moving to the next chunk. For wide stripes this keeps each input tile
//! cache-resident across every row that reads it, instead of streaming
//! the full stripe from memory once per row.
//!
//! # Accounting
//!
//! The tiled loops drive the raw [`galloper_gf::kernel`] entry points and
//! record the byte counters once per matrix application through
//! [`slice::record_mac_bytes`], producing totals byte-identical to the
//! historical per-call accounting without paying one atomic add per
//! row×column×tile.

use std::time::Instant;

use galloper_gf::{kernel, slice};
use galloper_obs::op;

use crate::pool::global_pool;
use crate::Matrix;

/// Target combined footprint of one output tile plus one tile of every
/// input stripe. 128 KiB sits comfortably inside L2 on every machine we
/// bench on while leaving room for the nibble tables in L1.
const TILE_TARGET_BYTES: usize = 128 * 1024;

/// Below this many total output bytes (`rows × stripe_len`) the parallel
/// entry points run serially: dispatch + latch overhead beats any possible
/// overlap on work this small.
const PARALLEL_CUTOFF_BYTES: usize = 1 << 16;

/// Column-chunk length for a product with `cols` input stripes, clamped
/// to [4 KiB, 64 KiB] and rounded to a 64-byte cache line so SIMD bulk
/// loops see aligned-friendly spans.
fn tile_len(cols: usize) -> usize {
    (TILE_TARGET_BYTES / cols.max(1)).clamp(4096, 65536) & !63
}

/// Computes `matrix · inputs`, returning one freshly allocated output buffer
/// per matrix row.
///
/// `inputs[j]` is the stripe multiplied by column `j`; all stripes must have
/// equal length.
///
/// # Panics
///
/// Panics if `inputs.len() != matrix.cols()` or the input stripes have
/// unequal lengths.
pub fn apply(matrix: &Matrix, inputs: &[&[u8]]) -> Vec<Vec<u8>> {
    let stripe_len = check_inputs(matrix, inputs);
    let mut outputs: Vec<Vec<u8>> = (0..matrix.rows()).map(|_| vec![0; stripe_len]).collect();
    {
        let mut out_refs: Vec<&mut [u8]> = outputs.iter_mut().map(Vec::as_mut_slice).collect();
        apply_into(matrix, inputs, &mut out_refs);
    }
    outputs
}

/// Computes `matrix · inputs` into caller-provided output buffers.
///
/// # Panics
///
/// Panics if shapes disagree: `inputs.len() != matrix.cols()`,
/// `outputs.len() != matrix.rows()`, or any buffer length differs from the
/// common stripe length.
pub fn apply_into(matrix: &Matrix, inputs: &[&[u8]], outputs: &mut [&mut [u8]]) {
    let stripe_len = check_shapes(matrix, inputs, outputs);
    record_accounting(matrix, stripe_len);
    let _span = kernel_span();
    let t0 = Instant::now();
    apply_rows_blocked(matrix, 0, inputs, outputs, stripe_len);
    attribute_compute(t0);
}

/// A `linalg.apply` child span when an operation is active — the leaf
/// of the request tree, sitting directly above kernel dispatch. Skipped
/// outside any operation so standalone math doesn't mint op ids.
fn kernel_span() -> Option<op::OpSpan> {
    op::current()
        .is_active()
        .then(|| op::span("linalg.apply", "linalg"))
}

/// Attributes the elapsed time since `t0` as coding compute to the
/// calling thread's current operation (no-op outside one).
fn attribute_compute(t0: Instant) {
    let ctx = op::current();
    if ctx.is_active() {
        op::add_compute_us(ctx.op, t0.elapsed().as_micros() as u64);
    }
}

/// Multi-threaded [`apply`]: output rows are distributed over the
/// persistent worker pool ([`crate::pool::global_pool`]), split into at
/// most `threads` tasks.
///
/// With `threads <= 1` — or when the product is too small to be worth
/// dispatching — this falls back to the serial path. Outputs are
/// deterministic and identical to [`apply`].
///
/// # Panics
///
/// Same shape conditions as [`apply`].
pub fn apply_parallel(matrix: &Matrix, inputs: &[&[u8]], threads: usize) -> Vec<Vec<u8>> {
    let stripe_len = check_inputs(matrix, inputs);
    let mut outputs: Vec<Vec<u8>> = (0..matrix.rows()).map(|_| vec![0; stripe_len]).collect();
    {
        let mut out_refs: Vec<&mut [u8]> = outputs.iter_mut().map(Vec::as_mut_slice).collect();
        apply_parallel_into(matrix, inputs, &mut out_refs, threads);
    }
    outputs
}

/// Multi-threaded [`apply_into`]: computes `matrix · inputs` into
/// caller-provided output buffers, distributing row ranges over the
/// persistent worker pool ([`crate::pool::global_pool`]) as at most
/// `threads` tasks.
///
/// This is the buffer-recycling primitive behind the streaming codec
/// pipeline (`galloper_erasure::stream`): a driver can checkout block
/// buffers from a pool and encode group after group with no per-group
/// allocation — and, since the worker-pool rewrite, no per-group thread
/// spawns either. With `threads <= 1`, a single output row, or fewer than
/// 64 KiB of total output the call runs serially on the caller. Outputs
/// are deterministic and identical to [`apply`].
///
/// # Panics
///
/// Same shape conditions as [`apply_into`].
pub fn apply_parallel_into(
    matrix: &Matrix,
    inputs: &[&[u8]],
    outputs: &mut [&mut [u8]],
    threads: usize,
) {
    let stripe_len = check_shapes(matrix, inputs, outputs);
    if threads <= 1 || matrix.rows() <= 1 || matrix.rows() * stripe_len <= PARALLEL_CUTOFF_BYTES {
        record_accounting(matrix, stripe_len);
        let _span = kernel_span();
        let t0 = Instant::now();
        apply_rows_blocked(matrix, 0, inputs, outputs, stripe_len);
        return attribute_compute(t0);
    }
    record_accounting(matrix, stripe_len);
    let _span = kernel_span();
    let tasks = threads.min(matrix.rows());
    let rows_per_task = matrix.rows().div_ceil(tasks);
    let jobs: Vec<crate::pool::ScopedTask<'_>> = outputs
        .chunks_mut(rows_per_task)
        .enumerate()
        .map(|(chunk_idx, chunk)| {
            let base = chunk_idx * rows_per_task;
            Box::new(move || {
                // Each task attributes its own compute: the worker pool
                // installed the submitting operation's context here.
                let t0 = Instant::now();
                apply_rows_blocked(matrix, base, inputs, chunk, stripe_len);
                attribute_compute(t0);
            }) as crate::pool::ScopedTask<'_>
        })
        .collect();
    global_pool().run(jobs);
}

/// Cache-blocked core: computes rows `base_row..base_row + outputs.len()`
/// of `matrix · inputs`, sweeping all rows over each column tile before
/// advancing to the next (uncounted — callers batch the accounting).
fn apply_rows_blocked(
    matrix: &Matrix,
    base_row: usize,
    inputs: &[&[u8]],
    outputs: &mut [&mut [u8]],
    stripe_len: usize,
) {
    if stripe_len == 0 {
        return;
    }
    let tile = tile_len(matrix.cols());
    let mut start = 0;
    while start < stripe_len {
        let end = (start + tile).min(stripe_len);
        for (off, out) in outputs.iter_mut().enumerate() {
            let row = matrix.row(base_row + off);
            let out_tile = &mut out[start..end];
            out_tile.fill(0);
            for (&coeff, input) in row.iter().zip(inputs) {
                kernel::mul_add(coeff, &input[start..end], out_tile);
            }
        }
        start = end;
    }
}

/// Adds to the global byte counters exactly what the historical per-call
/// `mul_slice_add` path would have added for this product: one
/// `mul_slice_add` per matrix entry, plus the nested `xor_slice` count
/// for every entry equal to 1.
fn record_accounting(matrix: &Matrix, stripe_len: usize) {
    let mut ones = 0;
    for r in 0..matrix.rows() {
        ones += matrix.row(r).iter().filter(|&&c| c == 1).count();
    }
    slice::record_mac_bytes(matrix.rows() * matrix.cols(), ones, stripe_len);
}

fn check_shapes(matrix: &Matrix, inputs: &[&[u8]], outputs: &[&mut [u8]]) -> usize {
    let stripe_len = check_inputs(matrix, inputs);
    assert_eq!(
        outputs.len(),
        matrix.rows(),
        "output count must equal matrix rows"
    );
    for out in outputs.iter() {
        assert_eq!(out.len(), stripe_len, "output stripe length mismatch");
    }
    stripe_len
}

fn check_inputs(matrix: &Matrix, inputs: &[&[u8]]) -> usize {
    assert_eq!(
        inputs.len(),
        matrix.cols(),
        "input count must equal matrix columns: {} vs {}",
        inputs.len(),
        matrix.cols()
    );
    let stripe_len = inputs.first().map_or(0, |s| s.len());
    for (j, s) in inputs.iter().enumerate() {
        assert_eq!(
            s.len(),
            stripe_len,
            "input stripe {j} has mismatched length"
        );
    }
    stripe_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use galloper_gf::Gf256;

    fn sample_inputs(cols: usize, len: usize) -> Vec<Vec<u8>> {
        (0..cols)
            .map(|j| {
                (0..len)
                    .map(|i| ((i * 31 + j * 7 + 3) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    /// Straight-line reference: one full-stripe pass per row via the
    /// counted slice kernels, with no tiling.
    fn reference_apply(m: &Matrix, inputs: &[&[u8]]) -> Vec<Vec<u8>> {
        let len = inputs.first().map_or(0, |s| s.len());
        (0..m.rows())
            .map(|r| {
                let mut out = vec![0u8; len];
                for (&coeff, input) in m.row(r).iter().zip(inputs) {
                    galloper_gf::slice::mul_slice_add(coeff, input, &mut out);
                }
                out
            })
            .collect()
    }

    #[test]
    fn apply_matches_scalar_math() {
        let m = Matrix::cauchy(3, 4);
        let inputs = sample_inputs(4, 57);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let out = apply(&m, &refs);
        for (r, out_row) in out.iter().enumerate() {
            for i in 0..57 {
                let want: Gf256 = (0..4).map(|j| m.get(r, j) * Gf256::new(inputs[j][i])).sum();
                assert_eq!(out_row[i], want.value(), "row {r} byte {i}");
            }
        }
    }

    #[test]
    fn apply_identity_copies() {
        let m = Matrix::identity(3);
        let inputs = sample_inputs(3, 10);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let out = apply(&m, &refs);
        assert_eq!(out, inputs);
    }

    #[test]
    fn blocked_apply_matches_reference_across_tile_boundaries() {
        // Stripe longer than one tile (tile_len(4) = 32 KiB) with a
        // length that is not a multiple of the tile, so the blocked
        // sweep crosses boundaries and ends on a ragged tail.
        let m = Matrix::cauchy(3, 4);
        assert_eq!(tile_len(4), 32 * 1024);
        let inputs = sample_inputs(4, 70_001);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        assert_eq!(apply(&m, &refs), reference_apply(&m, &refs));
    }

    #[test]
    fn tile_len_is_clamped_and_cache_line_rounded() {
        assert_eq!(tile_len(0), 64 * 1024);
        assert_eq!(tile_len(1), 64 * 1024);
        assert_eq!(tile_len(4), 32 * 1024);
        assert_eq!(tile_len(100), 4096);
        for cols in 1..64 {
            assert_eq!(tile_len(cols) % 64, 0, "cols={cols}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let _guard = crate::pool::test_lock();
        let m = Matrix::cauchy(9, 6);
        let inputs = sample_inputs(6, 1031); // odd size
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let serial = apply(&m, &refs);
        for threads in [1, 2, 3, 4, 16, 100] {
            assert_eq!(
                apply_parallel(&m, &refs, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_above_the_cutoff() {
        let _guard = crate::pool::test_lock();
        // 9 rows × 30 KiB ≫ PARALLEL_CUTOFF_BYTES: this genuinely runs
        // on the pool, with more requested threads than rows.
        let m = Matrix::cauchy(9, 6);
        let inputs = sample_inputs(6, 30 * 1024 + 17);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let serial = reference_apply(&m, &refs);
        for threads in [2, 9, 100] {
            assert_eq!(
                apply_parallel(&m, &refs, threads),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn repeated_parallel_reuse_stays_deterministic() {
        let _guard = crate::pool::test_lock();
        // The streaming pipeline calls this in a tight loop on recycled
        // buffers; the pool must give identical answers every time.
        let m = Matrix::cauchy(4, 3);
        let inputs = sample_inputs(3, 40 * 1024);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let fresh = apply(&m, &refs);
        let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| vec![0xEE; 40 * 1024]).collect();
        for round in 0..8 {
            let mut outs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
            apply_parallel_into(&m, &refs, &mut outs, 4);
            drop(outs);
            assert_eq!(bufs, fresh, "round {round}");
        }
    }

    #[test]
    fn apply_into_reuses_buffers() {
        let m = Matrix::cauchy(2, 2);
        let inputs = sample_inputs(2, 16);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let mut a = vec![0xAAu8; 16];
        let mut b = vec![0xBBu8; 16];
        {
            let mut outs: Vec<&mut [u8]> = vec![&mut a, &mut b];
            apply_into(&m, &refs, &mut outs);
        }
        let fresh = apply(&m, &refs);
        assert_eq!(a, fresh[0]);
        assert_eq!(b, fresh[1]);
    }

    #[test]
    fn parallel_into_matches_serial_and_reuses_buffers() {
        let _guard = crate::pool::test_lock();
        let m = Matrix::cauchy(5, 3);
        let inputs = sample_inputs(3, 513);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let fresh = apply(&m, &refs);
        // Dirty buffers must be fully overwritten, for any thread count.
        for threads in [1, 2, 4, 9] {
            let mut bufs: Vec<Vec<u8>> = (0..5).map(|_| vec![0xEE; 513]).collect();
            {
                let mut outs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
                apply_parallel_into(&m, &refs, &mut outs, threads);
            }
            assert_eq!(bufs, fresh, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "output stripe length mismatch")]
    fn parallel_into_rejects_short_output() {
        let m = Matrix::cauchy(2, 2);
        let inputs = sample_inputs(2, 8);
        let refs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
        let mut a = vec![0u8; 8];
        let mut b = vec![0u8; 7];
        let mut outs: Vec<&mut [u8]> = vec![&mut a, &mut b];
        apply_parallel_into(&m, &refs, &mut outs, 2);
    }

    #[test]
    fn empty_stripes_are_fine() {
        let m = Matrix::cauchy(2, 2);
        let out = apply(&m, &[&[], &[]]);
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "input count")]
    fn wrong_arity_panics() {
        let m = Matrix::identity(3);
        let _ = apply(&m, &[&[1, 2][..]]);
    }
}
