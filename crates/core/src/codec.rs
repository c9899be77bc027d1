//! The one binary codec behind run snapshots, sweep manifests and
//! persisted serve results.
//!
//! Every value those formats hold is written by [`Codec::put`] and read
//! back by [`Codec::read`], over the little-endian primitives and the
//! bounds-checked [`SnapshotReader`] of [`cocoa_sim::snapshot`]. This
//! module holds the trait, its impls for primitives, containers, time,
//! geometry and identifiers, and two macros that derive it:
//!
//! - `codec_struct! { Type { a, b, c } }` writes the listed fields in
//!   that order (the wire order, which need not be the declaration
//!   order) and reads them back into a struct literal; tuple structs
//!   list indices, `codec_struct! { NodeId { 0 } }`;
//! - `codec_enum! { Type, "what" { 0 => Unit {}, 1 => Named { a, b },
//!   2 => Tuple(x) } }` writes a `u8` tag and then the variant's fields,
//!   and rejects an unknown tag as [`SnapshotError::Malformed`] naming
//!   "what".
//!
//! The section codecs (`world::checkpoint`, `executor::manifest`,
//! `world::mesh`) are impls or macro invocations over these. The trait
//! lives here, not in `cocoa-sim`, because every encoder is a core
//! concern: with the trait in a lower crate the orphan rule would push
//! the impls for network, localization and mobility types into those
//! crates and spread one format over five.
//!
//! Layout rules that hold for every type:
//!
//! - `Option<T>` is a `bool` byte, then `T` when present;
//! - `Vec<T>` is a `usize` count (as `u64`), then the items. A count
//!   larger than the bytes left in the reader is rejected before any
//!   allocation: every encoded value takes at least one byte, so valid
//!   input never trips it, and hostile input cannot make the decoder
//!   reserve more items than it has bytes;
//! - tuples and structs are their fields in order, with no framing.
//!
//! A change to any byte this codec writes is a schema change: bump
//! [`cocoa_sim::snapshot::SNAPSHOT_SCHEMA_VERSION`] with it.
//! `crates/core/tests/codec_pins.rs` pins the bytes of every format so a symmetric
//! layout change cannot slip through the round-trip tests.

use cocoa_mobility::pose::Pose;
use cocoa_net::geometry::{Area, Point};
use cocoa_net::mac::TxId;
use cocoa_net::packet::NodeId;
use cocoa_net::rssi::Dbm;
use cocoa_sim::snapshot::{
    intern, put_bool, put_f64, put_str, put_u32, put_u64, put_u8, put_usize, SnapshotError,
    SnapshotReader,
};
use cocoa_sim::time::{SimDuration, SimTime};

/// A value with one canonical binary encoding.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decodes one value, leaving the reader just past it.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] for truncated or malformed input; never
    /// a panic.
    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Encodes `value` into a fresh buffer.
pub fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.put(&mut buf);
    buf
}

/// Decodes one `T` that must fill `bytes` exactly; `context` labels
/// errors.
///
/// # Errors
///
/// Any decode error of `T`, or [`SnapshotError::TrailingBytes`] when
/// bytes are left over.
pub fn decode<T: Codec>(bytes: &[u8], context: &'static str) -> Result<T, SnapshotError> {
    let mut r = SnapshotReader::new(bytes, context);
    let value = T::read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Writes `items` the way `Vec<T>` is written: a count, then each item.
/// For sequences that are not held in a `Vec` (a ring buffer, a
/// borrowed view).
pub fn put_seq<'a, T: Codec + 'a>(buf: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    put_usize(buf, items.len());
    for item in items {
        item.put(buf);
    }
}

/// Reads the count that opens a `Vec<T>` encoding, rejecting one larger
/// than the bytes left in `r`.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] for an impossible count.
pub fn read_len(r: &mut SnapshotReader<'_>) -> Result<usize, SnapshotError> {
    let n = r.usize_()?;
    if n > r.remaining() {
        return Err(malformed(format!(
            "sequence of {n} items with {} bytes left",
            r.remaining()
        )));
    }
    Ok(n)
}

/// A [`SnapshotError::Malformed`] with the given context.
pub fn malformed(context: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        context: context.into(),
    }
}

/// The error for an unknown enum tag.
pub fn bad_tag(what: &str, tag: u8) -> SnapshotError {
    malformed(format!("unknown {what} tag {tag}"))
}

macro_rules! codec_primitive {
    ($($ty:ty => $put:ident, $read:ident;)*) => {
        $(impl Codec for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $put(buf, *self);
            }

            fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                r.$read()
            }
        })*
    };
}

codec_primitive! {
    u8 => put_u8, u8;
    u32 => put_u32, u32;
    u64 => put_u64, u64;
    usize => put_usize, usize_;
    f64 => put_f64, f64;
    bool => put_bool, bool;
}

/// Interned names: written as strings, read back through
/// [`cocoa_sim::snapshot::intern`].
impl Codec for &'static str {
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(intern(r.str_()?))
    }
}

impl Codec for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_str(buf, self);
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.str_()?.to_owned())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_bool(buf, self.is_some());
        if let Some(v) = self {
            v.put(buf);
        }
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.bool()? { Some(T::read(r)?) } else { None })
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.iter());
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = read_len(r)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::read(r)?);
        }
        Ok(v)
    }
}

macro_rules! codec_tuple {
    ($(($($t:ident . $i:tt),+))*) => {
        $(impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }

            fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($t::read(r)?,)+))
            }
        })*
    };
}

codec_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

impl Codec for SimTime {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.as_micros());
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimTime::from_micros(r.u64()?))
    }
}

impl Codec for SimDuration {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.as_micros());
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimDuration::from_micros(r.u64()?))
    }
}

impl Codec for TxId {
    fn put(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.raw());
    }

    fn read(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TxId::from_raw(r.u64()?))
    }
}

/// Derives [`Codec`] for a struct from its fields in wire order.
macro_rules! codec_struct {
    ($ty:ty { $($field:tt),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $($crate::codec::Codec::put(&self.$field, buf);)+
            }

            fn read(
                r: &mut cocoa_sim::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, cocoa_sim::snapshot::SnapshotError> {
                Ok(Self {
                    $($field: $crate::codec::Codec::read(r)?,)+
                })
            }
        }
    };
}

/// Derives [`Codec`] for an enum: a `u8` tag, then the variant's fields.
/// Unit variants are written `Name {}`, tuple variants `Name(a, b)`.
macro_rules! codec_enum {
    ($ty:ty, $what:literal { $($tag:literal => $variant:ident $fields:tt),+ $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($crate::codec::codec_enum!(@pat $variant $fields) => {
                        buf.push($tag);
                        $crate::codec::codec_enum!(@put buf $fields);
                    })+
                }
            }

            fn read(
                r: &mut cocoa_sim::snapshot::SnapshotReader<'_>,
            ) -> Result<Self, cocoa_sim::snapshot::SnapshotError> {
                Ok(match r.u8()? {
                    $($tag => $crate::codec::codec_enum!(@read r $variant $fields),)+
                    t => return Err($crate::codec::bad_tag($what, t)),
                })
            }
        }
    };
    (@pat $variant:ident { $($f:ident),* $(,)? }) => { Self::$variant { $($f),* } };
    (@pat $variant:ident ( $($f:ident),* $(,)? )) => { Self::$variant($($f),*) };
    (@put $buf:ident { $($f:ident),* $(,)? }) => { $($crate::codec::Codec::put($f, $buf);)* };
    (@put $buf:ident ( $($f:ident),* $(,)? )) => { $($crate::codec::Codec::put($f, $buf);)* };
    (@read $r:ident $variant:ident { $($f:ident),* $(,)? }) => {
        Self::$variant { $($f: $crate::codec::Codec::read($r)?),* }
    };
    // The binding only gives the repetition a variable to follow.
    (@read $r:ident $variant:ident ( $($f:ident),* $(,)? )) => {
        Self::$variant($({
            let $f = $crate::codec::Codec::read($r)?;
            $f
        }),*)
    };
}

pub(crate) use {codec_enum, codec_struct};

codec_struct! { Point { x, y } }
codec_struct! { Pose { position, heading } }
codec_struct! { Area { x_min, x_max, y_min, y_max } }
codec_struct! { NodeId { 0 } }
codec_struct! { Dbm { 0 } }

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Dot(Point),
        Span { from: SimTime, len: SimDuration },
    }

    codec_enum! { Shape, "shape" {
        0 => Empty {},
        1 => Dot(at),
        2 => Span { from, len },
    } }

    #[test]
    fn containers_round_trip_with_the_documented_layout() {
        let value: (Option<u32>, Vec<&'static str>, Vec<Shape>) = (
            Some(7),
            vec!["a", "bc"],
            vec![
                Shape::Empty,
                Shape::Dot(Point::new(1.0, -2.0)),
                Shape::Span {
                    from: SimTime::from_micros(5),
                    len: SimDuration::from_micros(9),
                },
            ],
        );
        let bytes = encode(&value);
        // bool + u32, then count + two (u32 len + utf-8) strings, then
        // count + tag, tag + two f64, tag + two u64.
        assert_eq!(bytes.len(), (1 + 4) + (8 + 5 + 6) + (8 + 1 + 17 + 17));
        assert_eq!(
            decode::<(Option<u32>, Vec<&str>, Vec<Shape>)>(&bytes, "t"),
            Ok(value)
        );
    }

    #[test]
    fn unknown_tags_and_impossible_counts_are_malformed() {
        assert!(matches!(
            decode::<Shape>(&[3], "t"),
            Err(SnapshotError::Malformed { .. })
        ));
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 9);
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode::<Vec<u8>>(&bytes, "t"),
            Err(SnapshotError::Malformed { .. })
        ));
        bytes[0] = 8;
        assert_eq!(decode::<Vec<u8>>(&bytes, "t"), Ok(vec![0; 8]));
    }
}
