//! FNV-1a over the bit patterns of an episode's outputs: the cheap
//! "nothing changed" witness compared across passes, between the untraced
//! and the traced run, and seed by seed between two sets of runs.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Hashes the exact bit pattern, so `-0.0 != 0.0` and every NaN payload
    /// is told apart: a bit that moved is a behaviour change.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn is_sensitive_to_single_bits_and_order() {
        let a = Fnv::default().f64(1.0).f64(2.0).finish();
        assert_eq!(a, Fnv::default().f64(1.0).f64(2.0).finish());
        assert_ne!(a, Fnv::default().f64(2.0).f64(1.0).finish());
        assert_ne!(
            a,
            Fnv::default()
                .f64(1.0)
                .f64(f64::from_bits(2.0f64.to_bits() + 1))
                .finish()
        );
        assert_ne!(
            Fnv::default().f64(0.0).finish(),
            Fnv::default().f64(-0.0).finish()
        );
    }
}
