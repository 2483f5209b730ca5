//! A fast, deterministic, std-only hasher for the optimizer's hot maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with a random key —
//! DoS-resistant, but measurably slow for the tiny keys the congruence
//! closure hashes millions of times per backchase (`TermNode`s, signatures,
//! `VarSet` memo keys, homomorphism maps). The workspace has no registry
//! access, so this module provides the multiply-and-rotate scheme used by
//! rustc ("FxHash"): fold each machine word into the state with
//!
//! ```text
//! state = (state.rotate_left(5) ^ word) * K
//! ```
//!
//! where `K` is a 64-bit odd constant derived from π. No random state means
//! hashes are identical across runs and platforms — which these maps are
//! allowed to rely on because nothing in the optimizer *iterates* them (all
//! enumeration happens over arena-ordered vectors; see the determinism notes
//! in `cnb-core`'s `backchase`). The same pattern as `cnb_engine::prng`:
//! small, dependency-free, seed-stable.
//!
//! All inputs here are trusted (terms built by the optimizer itself), so the
//! loss of DoS resistance is irrelevant.
//!
//! This module is the *only* place the workspace is allowed to name the
//! std hash containers: `clippy.toml` bans them everywhere else (clippy
//! enforces it), and the aliases below are the sanctioned replacement.
//! The crate-root re-export `cnb_core::fxhash` keeps the historical path
//! alive for downstream crates.

// The std containers are named here on purpose: this is the definition site
// wrapping them with a deterministic hasher.
#[expect(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
#[expect(clippy::disallowed_types)]
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
#[expect(clippy::disallowed_types)]
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Zero-sized, deterministic builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// 64-bit odd multiplier: floor(2^64 / π), forced odd — the constant rustc's
/// hasher uses for 64-bit words.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The word-at-a-time multiply/rotate hasher. See the module docs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        // Fold 8 bytes at a time, then the (length-tagged) tail, so that
        // distinct byte strings of different lengths cannot collide trivially.
        while let Some((head, rest)) = bytes.split_first_chunk::<8>() {
            self.add_word(u64::from_le_bytes(*head));
            bytes = rest;
        }
        if !bytes.is_empty() {
            let mut tail = [0u8; 8];
            tail[..bytes.len()].copy_from_slice(bytes);
            tail[7] = bytes.len() as u8;
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_word(n as u64);
        self.add_word((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.add_word(n as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, n: i16) {
        self.add_word(n as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add_word(n as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add_word(n as usize as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // No random state: two independent builders agree (SipHash's default
        // RandomState would not).
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"hello world"), hash_of(&"hello world"));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        // Length-tagged tail: a prefix is not a collision.
        assert_ne!(hash_of(&b"abc".as_slice()), hash_of(&b"abc\0".as_slice()));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<String, usize> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("key{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000 {
            assert_eq!(m.get(&format!("key{i}")), Some(&i));
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000u64 {
            assert!(s.insert(i * i));
        }
        assert!(s.contains(&(999 * 999)));
    }

    #[test]
    fn spreads_small_ints() {
        // Low-entropy keys (arena indices) must not collapse onto a few
        // buckets: check all 1024 hashes of 0..1024 are distinct.
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1024u32 {
            assert!(seen.insert(hash_of(&i)), "collision at {i}");
        }
    }
}
