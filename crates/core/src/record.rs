//! Declare-once records. [`record!`] derives a struct's JSON wire form
//! from one field list, and for counter groups (a leading `counters`)
//! field-wise subtraction too. List order is wire order.
//!
//! An entry is a field name, then `=> "key"` or `=> "group" / "key"`
//! when the wire key differs, then, for a config field, `: lo..=hi`, the
//! range [`Wire::decode`] accepts. A trailing `check |v| ...` adds a rule
//! that spans fields. Decoding looks every key up directly, requires
//! every field and narrows integers with `try_from`.

use fdip_telemetry::Json;

/// A value with exactly one JSON form.
pub trait Wire: Sized {
    /// Renders the value.
    fn encode(&self) -> Json;
    /// Parses [`Wire::encode`]'s output. `None` if a field is missing or
    /// mistyped, does not fit its Rust type, or is out of range.
    fn decode(v: &Json) -> Option<Self>;
}

/// Counters that support interval arithmetic.
pub(crate) trait Counters {
    /// Field-wise `self - earlier`.
    fn sub(&self, earlier: &Self) -> Self;
}

impl Counters for u64 {
    fn sub(&self, earlier: &u64) -> u64 {
        self - earlier
    }
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self) -> Json {
                Json::Int(i64::try_from(*self).unwrap_or(i64::MAX))
            }
            fn decode(v: &Json) -> Option<$t> {
                <$t>::try_from(v.as_u64()?).ok()
            }
        }
    )*};
}

wire_uint!(u8, u32, u64, usize);

impl Wire for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(v: &Json) -> Option<bool> {
        v.as_bool()
    }
}

/// A fixed-length array: exactly `N` entries on the wire.
impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Wire::encode).collect())
    }
    fn decode(v: &Json) -> Option<Self> {
        let items = v.as_arr()?;
        if items.len() != N {
            return None;
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::decode(item)?;
        }
        Some(out)
    }
}

/// Decodes the field at `path` (one direct key lookup per level).
pub(crate) fn field<T: Wire>(v: &Json, path: &[&str]) -> Option<T> {
    T::decode(path.iter().try_fold(v, |v, key| v.get(key))?)
}

/// Stores `value` at `path` under the object `obj`; a group a field names
/// first is appended, in list order.
pub(crate) fn put(obj: &mut Json, path: &[&str], value: Json) {
    match path {
        [] => {}
        [key] => {
            obj.set(key, value);
        }
        [group, rest @ ..] => {
            let mut inner = obj.get(group).cloned().unwrap_or_else(Json::obj);
            put(&mut inner, rest, value);
            obj.set(group, inner);
        }
    }
}

/// Derives [`Wire`] (and, with a leading `counters`, [`Counters`]) for a
/// struct from its one field list; see the module docs for the syntax.
macro_rules! record {
    (@path $f:ident) => { &[stringify!($f)] };
    (@path $f:ident $($key:literal)+) => { &[$($key),+] };
    (counters $ty:ident { $($f:ident $(=> $($key:literal)/+)?),* $(,)? }) => {
        record!($ty { $($f $(=> $($key)/+)?),* });
        impl $crate::record::Counters for $ty {
            fn sub(&self, earlier: &Self) -> Self {
                $ty { $($f: $crate::record::Counters::sub(&self.$f, &earlier.$f)),* }
            }
        }
    };
    (
        $ty:ident { $($f:ident $(=> $($key:literal)/+)? $(: $range:expr)?),* $(,)? }
        $(check $check:expr)?
    ) => {
        impl $crate::record::Wire for $ty {
            fn encode(&self) -> fdip_telemetry::Json {
                let mut out = fdip_telemetry::Json::obj();
                $($crate::record::put(
                    &mut out,
                    record!(@path $f $($($key)+)?),
                    $crate::record::Wire::encode(&self.$f),
                );)*
                out
            }
            fn decode(v: &fdip_telemetry::Json) -> Option<Self> {
                let r = $ty {
                    $($f: {
                        let x = $crate::record::field(v, record!(@path $f $($($key)+)?))?;
                        $(if !($range).contains(&x) {
                            return None;
                        })?
                        x
                    },)*
                };
                $(
                    let check: fn(&Self) -> bool = $check;
                    if !check(&r) {
                        return None;
                    }
                )?
                Some(r)
            }
        }
    };
}

pub(crate) use record;
