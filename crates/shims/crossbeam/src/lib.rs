//! Offline stand-in for the `crossbeam` crate (no network in the build
//! environment). Provides only what this workspace uses:
//! [`utils::CachePadded`].

pub mod utils {
    use core::ops::{Deref, DerefMut};

    /// Pads and aligns a value to 128 bytes so that neighbouring values
    /// never share a cache line (two lines on x86-64, where the spatial
    /// prefetcher pulls pairs of lines).
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in the padded container.
        pub const fn new(value: T) -> CachePadded<T> {
            CachePadded { value }
        }
    }

    impl<T> Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn alignment_is_128() {
            assert_eq!(core::mem::align_of::<CachePadded<u8>>(), 128);
            let p = CachePadded::new(7u32);
            assert_eq!(*p, 7);
        }
    }
}
