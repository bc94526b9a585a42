//! Shared byte ranges: how a decoded value holds the bytes it arrived in.
//!
//! A frame comes off a socket (or out of a leader's encoder) once, as one
//! `Arc<[u8]>`. A transaction decoded from it keeps the range its payload
//! occupies, and a block the range of its whole encoding, instead of
//! copying either out: each payload byte then exists once per replica,
//! from the client gateway through the mempool, the proposal, the block
//! store and the WAL append. Holding bytes is sound because the codec is
//! canonical — a value has exactly one encoding, so the bytes a value was
//! decoded from *are* its encoding.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable range of a shared buffer. Cloning it shares the buffer;
/// equality, ordering of bytes and hashing see only the bytes in range,
/// never the buffer around them.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sft_types::SharedBytes;
///
/// let frame: Arc<[u8]> = vec![0, 1, 2, 3, 4].into();
/// let middle = SharedBytes::range(&frame, 1..4).expect("in bounds");
/// assert_eq!(&*middle, &[1, 2, 3]);
/// assert_eq!(middle, SharedBytes::from(vec![1, 2, 3]));
/// assert!(SharedBytes::range(&frame, 3..9).is_none());
/// ```
#[derive(Clone)]
pub struct SharedBytes {
    buf: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl SharedBytes {
    /// The bytes `range` of `buf`, sharing it; `None` if `range` does not
    /// lie within `buf`.
    pub fn range(buf: &Arc<[u8]>, range: Range<usize>) -> Option<Self> {
        (range.start <= range.end && range.end <= buf.len()).then(|| Self {
            buf: Arc::clone(buf),
            start: range.start,
            end: range.end,
        })
    }

    /// The buffer this range is part of.
    pub fn buffer(&self) -> &Arc<[u8]> {
        &self.buf
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for SharedBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Arc<[u8]>> for SharedBytes {
    fn from(buf: Arc<[u8]>) -> Self {
        let end = buf.len();
        Self { buf, start: 0, end }
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        Arc::<[u8]>::from(bytes).into()
    }
}

impl From<&[u8]> for SharedBytes {
    fn from(bytes: &[u8]) -> Self {
        Arc::<[u8]>::from(bytes).into()
    }
}

impl PartialEq for SharedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedBytes {}

impl Hash for SharedBytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes({}B)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_range_sees_only_its_bytes() {
        let frame: Arc<[u8]> = (0u8..10).collect();
        let a = SharedBytes::range(&frame, 2..5).unwrap();
        assert_eq!(&*a, &[2, 3, 4]);
        assert!(Arc::ptr_eq(a.buffer(), &frame), "shared, not copied");
        let elsewhere: Arc<[u8]> = vec![9, 2, 3, 4, 9].into();
        let b = SharedBytes::range(&elsewhere, 1..4).unwrap();
        assert_eq!(a, b, "equal bytes are equal ranges, whatever the buffer");
        let hash = |s: &SharedBytes| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert!(SharedBytes::range(&frame, 5..11).is_none());
        assert_eq!(&*SharedBytes::range(&frame, 10..10).unwrap(), &[] as &[u8]);
    }
}
