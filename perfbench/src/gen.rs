//! Seeded inputs: the op streams every workload draws from, and the payload
//! pattern every write carries and every read is checked against.
//!
//! Everything here is a pure function of the `--seed` argument, so the same
//! seed always produces the same op stream and the same bytes.

/// SplitMix64: a tiny, fast, well-mixed generator. The benchmark owns its
/// generator so its inputs never change when a library's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (multiply-shift, no modulo bias worth measuring).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive hash of two words.
pub fn mix(a: u64, b: u64) -> u64 {
    finalize(a.rotate_left(17) ^ finalize(b.wrapping_add(0x632B_E59B_D9B4_E019)))
}

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Stat,
}

/// One operation of a workload's stream. `tenant` indexes the workload's
/// tenant list; `offset`/`len` address bytes of file `file`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub tenant: u32,
    pub kind: Kind,
    pub file: u32,
    pub offset: u64,
    pub len: u64,
}

/// An op stream. Infinite streams feed the timed window; finite ones (the
/// read-back of `fair_large`) end with `None`.
#[derive(Debug, Clone)]
pub enum Stream {
    /// `small_ops`: every op from a uniformly drawn tenant, 70% reads, 20%
    /// writes, 10% stats, on a uniformly drawn block of a uniformly drawn
    /// file.
    Mixed {
        rng: SplitMix64,
        tenants: u32,
        files: u32,
        blocks: u64,
        block_len: u64,
    },
    /// `fair_large`: one job writing its own file block after block,
    /// wrapping at the end, from a seeded starting block.
    Cyclic {
        tenant: u32,
        file: u32,
        next: u64,
        blocks: u64,
        block_len: u64,
    },
    /// `staged_spill`: 75% whole-block reads, 25% whole-block writes at
    /// uniformly drawn blocks of one file.
    Spill {
        rng: SplitMix64,
        blocks: u64,
        block_len: u64,
    },
    /// A finite sequential read of `count` `len`-byte pieces of one file.
    ReadBack {
        tenant: u32,
        file: u32,
        next: u64,
        count: u64,
        len: u64,
    },
}

impl Stream {
    pub fn next_op(&mut self) -> Option<Op> {
        match self {
            Stream::Mixed {
                rng,
                tenants,
                files,
                blocks,
                block_len,
            } => {
                let tenant = rng.below(*tenants as u64) as u32;
                let kind = match rng.below(100) {
                    0..=69 => Kind::Read,
                    70..=89 => Kind::Write,
                    _ => Kind::Stat,
                };
                let file = rng.below(*files as u64) as u32;
                let block = rng.below(*blocks);
                Some(Op {
                    tenant,
                    kind,
                    file,
                    offset: block * *block_len,
                    len: *block_len,
                })
            }
            Stream::Cyclic {
                tenant,
                file,
                next,
                blocks,
                block_len,
            } => {
                let block = *next % *blocks;
                *next += 1;
                Some(Op {
                    tenant: *tenant,
                    kind: Kind::Write,
                    file: *file,
                    offset: block * *block_len,
                    len: *block_len,
                })
            }
            Stream::Spill {
                rng,
                blocks,
                block_len,
            } => {
                let kind = if rng.below(100) < 75 {
                    Kind::Read
                } else {
                    Kind::Write
                };
                let block = rng.below(*blocks);
                Some(Op {
                    tenant: 0,
                    kind,
                    file: 0,
                    offset: block * *block_len,
                    len: *block_len,
                })
            }
            Stream::ReadBack {
                tenant,
                file,
                next,
                count,
                len,
            } => {
                if *next == *count {
                    return None;
                }
                let offset = *next * *len;
                *next += 1;
                Some(Op {
                    tenant: *tenant,
                    kind: Kind::Read,
                    file: *file,
                    offset,
                    len: *len,
                })
            }
        }
    }
}

/// Longest block any workload writes.
const MAX_BLOCK: usize = 1 << 20;
const BASE_LEN: usize = 2 * MAX_BLOCK;

/// The deterministic content of every block version.
///
/// Version `v` of block `b` of file `f` is a window of a seeded random base
/// buffer, starting at a shift derived from `(seed, f, b, v)`, with its first
/// eight bytes replaced by that key's 64-bit tag. The tag makes a stale or
/// misplaced block detectable exactly; the shifted window makes every other
/// byte depend on the version too. Producing a payload is one copy.
pub struct Pattern {
    seed: u64,
    base: Vec<u8>,
}

impl Pattern {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(mix(seed, 0xDA7A));
        let mut base = Vec::with_capacity(BASE_LEN);
        while base.len() < BASE_LEN {
            base.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Pattern { seed, base }
    }

    fn tag(&self, file: u32, block: u64, version: u32) -> u64 {
        mix(mix(mix(self.seed, file as u64), block), version as u64)
    }

    fn shift(tag: u64) -> usize {
        (tag >> 7) as usize % (BASE_LEN - MAX_BLOCK)
    }

    /// The bytes of version `version` of a `block_len`-byte block.
    pub fn block(&self, file: u32, block: u64, version: u32, block_len: u64) -> Vec<u8> {
        let tag = self.tag(file, block, version);
        let s = Self::shift(tag);
        let mut out = self.base[s..s + block_len as usize].to_vec();
        let head = out.len().min(8);
        out[..head].copy_from_slice(&tag.to_le_bytes()[..head]);
        out
    }

    /// Whether `got` equals bytes `[at, at + len)` of that block version.
    pub fn matches(
        &self,
        got: &[u8],
        file: u32,
        block: u64,
        version: u32,
        at: u64,
        len: u64,
    ) -> bool {
        if got.len() as u64 != len {
            return false;
        }
        let tag = self.tag(file, block, version);
        let s = Self::shift(tag);
        let at = at as usize;
        let head = 8usize.saturating_sub(at).min(got.len());
        let (got_head, got_rest) = got.split_at(head);
        (head == 0 || got_head == &tag.to_le_bytes()[at..at + head])
            && got_rest == &self.base[s + at + head..s + at + got.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(mut s: Stream, n: usize) -> Vec<Op> {
        (0..n).map_while(|_| s.next_op()).collect()
    }

    fn mixed(seed: u64) -> Stream {
        Stream::Mixed {
            rng: SplitMix64::new(seed),
            tenants: 4096,
            files: 64,
            blocks: 256,
            block_len: 4096,
        }
    }

    #[test]
    fn same_seed_gives_the_same_stream() {
        assert_eq!(take(mixed(7), 10_000), take(mixed(7), 10_000));
        let spill = |seed| Stream::Spill {
            rng: SplitMix64::new(seed),
            blocks: 256,
            block_len: 1 << 20,
        };
        assert_eq!(take(spill(7), 10_000), take(spill(7), 10_000));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(take(mixed(7), 1000), take(mixed(8), 1000));
    }

    #[test]
    fn mixed_stream_follows_the_stated_mix() {
        let ops = take(mixed(3), 100_000);
        let share = |k| ops.iter().filter(|o| o.kind == k).count() as f64 / ops.len() as f64;
        assert!((share(Kind::Read) - 0.70).abs() < 0.01);
        assert!((share(Kind::Write) - 0.20).abs() < 0.01);
        assert!((share(Kind::Stat) - 0.10).abs() < 0.01);
        assert!(ops
            .iter()
            .all(|o| o.tenant < 4096 && o.file < 64 && o.offset < 1 << 20));
    }

    #[test]
    fn cyclic_stream_wraps_over_its_file() {
        let s = Stream::Cyclic {
            tenant: 2,
            file: 2,
            next: 62,
            blocks: 64,
            block_len: 1 << 20,
        };
        let offsets: Vec<u64> = take(s, 4).iter().map(|o| o.offset >> 20).collect();
        assert_eq!(offsets, [62, 63, 0, 1]);
    }

    #[test]
    fn read_back_stream_ends() {
        let s = Stream::ReadBack {
            tenant: 0,
            file: 1,
            next: 0,
            count: 8,
            len: 256 << 10,
        };
        assert_eq!(take(s, 100).len(), 8);
    }

    #[test]
    fn pattern_checks_exact_bytes_and_versions() {
        let p = Pattern::new(1);
        let b = p.block(3, 9, 2, 1 << 20);
        assert_eq!(b, Pattern::new(1).block(3, 9, 2, 1 << 20));
        assert!(p.matches(&b, 3, 9, 2, 0, 1 << 20));
        // Sub-ranges, including ones that cut through the tag.
        assert!(p.matches(&b[4..4100], 3, 9, 2, 4, 4096));
        assert!(p.matches(&b[256 << 10..512 << 10], 3, 9, 2, 256 << 10, 256 << 10));
        // Another version, block, file or seed does not match.
        assert!(!p.matches(&b, 3, 9, 1, 0, 1 << 20));
        assert!(!p.matches(&b, 3, 8, 2, 0, 1 << 20));
        assert!(!p.matches(&b, 4, 9, 2, 0, 1 << 20));
        assert!(!Pattern::new(2).matches(&b, 3, 9, 2, 0, 1 << 20));
        // A single flipped byte or a short read is caught.
        let mut bad = b.clone();
        bad[777] ^= 1;
        assert!(!p.matches(&bad, 3, 9, 2, 0, 1 << 20));
        assert!(!p.matches(&b[..100], 3, 9, 2, 0, 1 << 20));
    }
}
