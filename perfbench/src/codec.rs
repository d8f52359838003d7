//! The file pipeline through the public `galloper_cli` functions:
//! encode a file, decode it with one block file deleted, and rebuild
//! that block with `repair_block` — plus, for the traced run, the
//! pipeline's stages timed one at a time.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use galloper_cli::{build_code, BlockFileSink, CodeSpec};
use galloper_erasure::{AlignedBuf, ErasureCode, GroupSink, StripeEncoder};

use crate::stats::{Mark, Rng, Usage};

/// The pinned file code: Galloper(4,2,1) at the CLI's default 64 KiB
/// stripe — 448 KiB blocks, 1792 KiB messages.
pub fn file_spec() -> CodeSpec {
    CodeSpec::galloper(4, 2, 1, 64 << 10)
}

/// The block deleted before each decode and rebuilt by the repair: a
/// data-role block, whose local group holds two other blocks.
const LOST_BLOCK: usize = 0;

/// The CLI's on-disk name for block `b` of an encoded directory.
fn block_file(dir: &Path, b: usize) -> PathBuf {
    dir.join(format!("block_{b}.bin"))
}

/// Writes `len` seeded bytes to `path`. Not synced: the input needs no
/// durability, and flushing it would tie set-up time to the device.
///
/// # Errors
///
/// Any write failure.
pub fn write_input(path: &Path, seed: u64, len: usize) -> io::Result<()> {
    let mut rng = Rng::new(seed, 1 << 48);
    let mut out = File::create(path)?;
    let mut chunk = vec![0u8; 1 << 20];
    let mut left = len;
    while left > 0 {
        let n = left.min(chunk.len());
        rng.fill(&mut chunk[..n]);
        out.write_all(&chunk[..n])?;
        left -= n;
    }
    Ok(())
}

/// Whether two files hold the same bytes.
fn same_bytes(a: &Path, b: &Path) -> io::Result<bool> {
    let (mut fa, mut fb) = (File::open(a)?, File::open(b)?);
    if fa.metadata()?.len() != fb.metadata()?.len() {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    loop {
        let n = read_full(&mut fa, &mut ba)?;
        if n != read_full(&mut fb, &mut bb)? || ba[..n] != bb[..n] {
            return Ok(false);
        }
        if n == 0 {
            return Ok(true);
        }
    }
}

fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// One encode → lose a block → decode → repair round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Wall time of `encode_file`, seconds.
    pub encode_s: f64,
    /// Wall time of `decode_file` with one block file missing, seconds.
    pub decode_s: f64,
    /// Wall time of `repair_block`, seconds.
    pub repair_s: f64,
    /// What the three calls used together: CPU time and bytes read.
    pub used: Usage,
    /// Size of the rebuilt block file, bytes.
    pub repaired_bytes: u64,
    /// Bytes of the encoded directory (block files and manifest).
    pub coded_bytes: u64,
    /// Source blocks the repair plan read.
    pub src_blocks: usize,
    /// Bytes read by the process during the repair; NaN where not
    /// reported.
    pub repair_read_bytes: f64,
}

/// Every round of a codec phase, with operation counts (three
/// operations a round; a typed error or a wrong byte fails one).
#[derive(Debug, Default)]
pub struct CodecLog {
    /// Completed rounds.
    pub rounds: Vec<Round>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Round {
    /// Time spent in the three CLI calls, seconds.
    pub fn op_s(&self) -> f64 {
        self.encode_s + self.decode_s + self.repair_s
    }
}

impl CodecLog {
    /// Median over rounds of `f(round)`; 0 when no round completed.
    pub fn median_of(&self, f: impl Fn(&Round) -> f64) -> f64 {
        let values: Vec<f64> = self.rounds.iter().map(f).collect();
        crate::stats::median(&values).unwrap_or(0.0)
    }
}

/// One round on `input` in `dir`. `Err` names the operation that
/// failed and how.
fn round(input: &Path, dir: &Path) -> Result<Round, String> {
    let spec = file_spec();
    let encoded = dir.join("coded");
    let _ = fs::remove_dir_all(&encoded);
    let mut used = Usage::default();
    let mark = Mark::now();
    let t0 = Instant::now();
    galloper_cli::encode_file(input, &encoded, &spec).map_err(|e| format!("encode: {e}"))?;
    let encode_s = t0.elapsed().as_secs_f64();
    used += mark.since();

    let coded_bytes = dir_bytes(&encoded).map_err(|e| format!("encode: {e}"))?;

    // The lost block is moved aside, not read into memory, so the
    // benchmark's own buffers stay out of the peak resident set.
    let lost = block_file(&encoded, LOST_BLOCK);
    let original = dir.join("lost-block.bin");
    fs::rename(&lost, &original).map_err(|e| format!("encode: {e}"))?;
    let output = dir.join("decoded.bin");
    let mark = Mark::now();
    let t0 = Instant::now();
    galloper_cli::decode_file(&encoded, &output).map_err(|e| format!("decode: {e}"))?;
    let decode_s = t0.elapsed().as_secs_f64();
    used += mark.since();
    if !same_bytes(input, &output).map_err(|e| format!("decode: {e}"))? {
        return Err("decode: output differs from the input".into());
    }
    fs::remove_file(&output).map_err(|e| format!("decode: {e}"))?;

    let mark = Mark::now();
    let t0 = Instant::now();
    let src_blocks =
        galloper_cli::repair_block(&encoded, LOST_BLOCK).map_err(|e| format!("repair: {e}"))?;
    let repair_s = t0.elapsed().as_secs_f64();
    let repair = mark.since();
    used += repair;
    if !same_bytes(&lost, &original).map_err(|e| format!("repair: {e}"))? {
        return Err("repair: rebuilt block differs from the lost one".into());
    }
    let repaired_bytes = fs::metadata(&lost)
        .map_err(|e| format!("repair: {e}"))?
        .len();
    fs::remove_file(&original).map_err(|e| format!("repair: {e}"))?;
    Ok(Round {
        encode_s,
        decode_s,
        repair_s,
        used,
        repaired_bytes,
        coded_bytes,
        src_blocks,
        repair_read_bytes: repair.read_bytes,
    })
}

/// Bytes in the files directly under `dir`.
fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Runs rounds on `input` in `dir` until `dur` has passed (at least
/// one), then removes the encoded output.
pub fn codec_phase(input: &Path, dir: &Path, dur: Duration) -> CodecLog {
    let until = Instant::now() + dur;
    let mut log = CodecLog::default();
    loop {
        match round(input, dir) {
            Ok(r) => {
                log.attempted += 3;
                log.rounds.push(r);
            }
            Err(why) => {
                eprintln!("perfbench: file-codec {why}");
                // Operations after the failed one did not run.
                log.attempted += match why.split(':').next() {
                    Some("encode") => 1,
                    Some("decode") => 2,
                    _ => 3,
                };
                log.failed += 1;
            }
        }
        if Instant::now() >= until {
            break;
        }
    }
    let _ = fs::remove_dir_all(dir.join("coded"));
    log
}

/// A sink that drops every group: encode compute with no output I/O.
struct NullSink;

impl GroupSink for NullSink {
    type Error = std::convert::Infallible;
    fn group(&mut self, _group: usize, _blocks: &[AlignedBuf]) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// The encode pipeline's stages, each timed on its own over the same
/// input: read, encode, write.
#[derive(Debug, Clone, Copy)]
pub struct Stages {
    /// Reading the input with `read(2)`, seconds.
    pub read_s: f64,
    /// `StripeEncoder` over the input into a null sink, seconds.
    pub encode_s: f64,
    /// Writing the coded bytes through `BlockFileSink`, seconds.
    pub write_s: f64,
    /// Input bytes.
    pub input_bytes: u64,
    /// Coded bytes written.
    pub coded_bytes: u64,
}

/// Times the read, encode and write stages of encoding `input`, using
/// `dir` for the write stage's block files.
///
/// # Errors
///
/// A message on any I/O or coding failure.
pub fn time_stages(input: &Path, dir: &Path) -> Result<Stages, String> {
    let code = build_code(&file_spec()).map_err(|e| e.to_string())?;
    let msg = code.message_len();
    let mut file = File::open(input).map_err(|e| e.to_string())?;
    let mut buf = AlignedBuf::zeroed(msg * 8);
    let mut encoder = StripeEncoder::new(&code, NullSink);
    let (mut read_s, mut encode_s, mut input_bytes) = (0.0, 0.0, 0u64);
    loop {
        let t0 = Instant::now();
        let n = read_full(&mut file, &mut buf).map_err(|e| e.to_string())?;
        read_s += t0.elapsed().as_secs_f64();
        if n == 0 {
            break;
        }
        input_bytes += n as u64;
        // Whole messages encode in place, as `encode_file` does; only a
        // ragged tail is staged.
        let whole = buf[..n].chunks_exact(msg);
        let tail = whole.remainder();
        let msgs: Vec<&[u8]> = whole.collect();
        let t0 = Instant::now();
        encoder
            .push_messages(&msgs)
            .and_then(|()| encoder.push(tail))
            .map_err(|e| format!("encode: {e:?}"))?;
        encode_s += t0.elapsed().as_secs_f64();
    }
    let t0 = Instant::now();
    let (manifest, _) = encoder.finish().map_err(|e| format!("encode: {e:?}"))?;
    encode_s += t0.elapsed().as_secs_f64();

    let out = dir.join("stage-write");
    fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let mut sink = BlockFileSink::create(&out, code.num_blocks()).map_err(|e| e.to_string())?;
    let group: Vec<AlignedBuf> = (0..code.num_blocks())
        .map(|_| AlignedBuf::zeroed(code.block_len()))
        .collect();
    let t0 = Instant::now();
    for g in 0..manifest.num_groups {
        sink.group(g, &group).map_err(|e| e.to_string())?;
    }
    drop(sink);
    let write_s = t0.elapsed().as_secs_f64();
    let _ = fs::remove_dir_all(&out);
    Ok(Stages {
        read_s,
        encode_s,
        write_s,
        input_bytes,
        coded_bytes: (manifest.num_groups * code.num_blocks() * code.block_len()) as u64,
    })
}

/// GF(2⁸) multiply-accumulate throughput of the active kernel, in
/// GB/s of source bytes, over about `dur`.
pub fn mul_add_gb_s(dur: Duration) -> f64 {
    let src = Rng::new(3, 3).bytes(64 << 10);
    let mut dst = vec![0u8; src.len()];
    let mut bytes = 0u64;
    let t0 = Instant::now();
    let mut c = 2u8;
    while t0.elapsed() < dur {
        for _ in 0..64 {
            galloper_gf::kernel::mul_add(c, &src, &mut dst);
            c = c.wrapping_add(1).max(2);
        }
        bytes += 64 * src.len() as u64;
    }
    std::hint::black_box(&dst);
    bytes as f64 / 1e9 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_round_trips_and_repairs_from_two_blocks() {
        let dir = std::env::temp_dir().join(format!("perfbench-codec-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let input = dir.join("input.bin");
        write_input(&input, 5, (3 << 20) + 123).unwrap();
        let log = codec_phase(&input, &dir, Duration::ZERO);
        assert_eq!((log.attempted, log.failed), (3, 0));
        assert_eq!(log.rounds[0].src_blocks, 2);
        let stages = time_stages(&input, &dir).unwrap();
        assert_eq!(stages.input_bytes, (3 << 20) + 123);
        // Two 1792 KiB groups of seven 448 KiB blocks.
        assert_eq!(stages.coded_bytes, 2 * 7 * (448 << 10));
        fs::remove_dir_all(&dir).unwrap();
    }
}
