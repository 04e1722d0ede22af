//! The one JSON codec: every record is declared once and gets its writer
//! and its reader from that declaration.
//!
//! * [`Json`] is the codec trait — `write` appends a value's JSON text,
//!   `read` rebuilds it from a parsed [`Value`]. It is implemented here,
//!   once, for the unsigned integers, `bool`, `String`, `f64`, `Vec<T>`,
//!   `[T; N]`, pairs and `Option<T>` (`null`), so each primitive is
//!   spelled in one place and parsed in one place.
//! * [`json_record!`](crate::json_record) turns one ordered field list
//!   into a struct's `Json` impl and inherent `from_json`;
//!   [`json_union!`](crate::json_union) does the same for an internally
//!   tagged enum, and [`json_tags!`](crate::json_tags) for a unit enum.
//! * Shapes that are not their Rust shape (a flattened sub-struct, a seed
//!   sent as a decimal string) implement [`Json`] by hand from the same
//!   two halves the macros use: [`JsonObject::field`] to write and
//!   [`Value::field`] / [`Value::field_or`] to read.
//!
//! Floats have a single spelling that survives a round trip bit-exactly:
//! Rust's shortest `Display` form when finite (the parser reads it back
//! with `f64::from_str`, which inverts it), and the strings `"inf"`,
//! `"-inf"`, `"nan"` otherwise, since JSON numbers cannot express those.
//!
//! The hot path (a [`JsonlSink`](crate::JsonlSink) behind the engine's
//! event dispatch) appends into one reused `String`; nested values are
//! written in place, so encoding is allocation-free in steady state.

use crate::json::{write_escaped, Value};
use std::fmt::Write as _;

/// A value with one JSON form: how it is written and how it is read back.
pub trait Json: Sized {
    /// Appends this value's JSON text to `out`.
    fn write(&self, out: &mut String);

    /// Rebuilds a value from its parsed JSON form.
    ///
    /// # Errors
    ///
    /// Says what was wrong; readers of enclosing records prefix the field
    /// name, so the message names the first missing or mistyped field.
    fn read(value: &Value) -> Result<Self, String>;
}

/// A record that knows how to write itself as one line of JSON — every
/// [`Json`] type, under the names the sinks and journals call.
pub trait JsonRecord {
    /// Appends this record's JSON text (no trailing newline).
    fn write_json(&self, out: &mut String);

    /// The record as a standalone JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl<T: Json> JsonRecord for T {
    fn write_json(&self, out: &mut String) {
        self.write(out);
    }
}

macro_rules! json_unsigned {
    ($($int:ty),*) => {$(
        impl Json for $int {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(value: &Value) -> Result<Self, String> {
                let wide = value.as_u64().ok_or("not an unsigned integer")?;
                <$int>::try_from(wide)
                    .map_err(|_| format!("{wide} is out of {} range", stringify!($int)))
            }
        }
    )*};
}
json_unsigned!(u8, u16, u32, u64, usize);

impl Json for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(value: &Value) -> Result<Self, String> {
        value.as_bool().ok_or_else(|| "not a bool".to_owned())
    }
}

impl Json for String {
    fn write(&self, out: &mut String) {
        let _ = write_escaped(out, self);
    }

    fn read(value: &Value) -> Result<Self, String> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| "not a string".to_owned())
    }
}

impl Json for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else if self.is_nan() {
            out.push_str("\"nan\"");
        } else if *self > 0.0 {
            out.push_str("\"inf\"");
        } else {
            out.push_str("\"-inf\"");
        }
    }

    fn read(value: &Value) -> Result<Self, String> {
        match (value.as_f64(), value.as_str()) {
            (Some(number), _) => Ok(number),
            (_, Some("inf")) => Ok(f64::INFINITY),
            (_, Some("-inf")) => Ok(f64::NEG_INFINITY),
            (_, Some("nan")) => Ok(f64::NAN),
            _ => Err("not a number".to_owned()),
        }
    }
}

fn write_array<T: Json>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, out: &mut String) {
        write_array(out, self);
    }

    fn read(value: &Value) -> Result<Self, String> {
        value
            .as_array()
            .ok_or("not an array")?
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item).map_err(|e| format!("element {i}: {e}")))
            .collect()
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn write(&self, out: &mut String) {
        write_array(out, self);
    }

    fn read(value: &Value) -> Result<Self, String> {
        let items = Vec::<T>::read(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected {N} elements, got {len}"))
    }
}

impl<A: Json, B: Json> Json for (A, B) {
    fn write(&self, out: &mut String) {
        out.push('[');
        self.0.write(out);
        out.push(',');
        self.1.write(out);
        out.push(']');
    }

    fn read(value: &Value) -> Result<Self, String> {
        match value.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((A::read(a)?, B::read(b)?)),
            _ => Err("not a two-element array".to_owned()),
        }
    }
}

impl<T: Json> Json for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(inner) => inner.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(value: &Value) -> Result<Self, String> {
        if value.is_null() {
            Ok(None)
        } else {
            T::read(value).map(Some)
        }
    }
}

/// The reading half of the codec: typed member access on a parsed object.
impl Value {
    /// Reads the required member `key`.
    ///
    /// # Errors
    ///
    /// If `key` is absent (or `self` is not an object) or its value is not
    /// a `T`; either way the message names `key`.
    pub fn field<T: Json>(&self, key: &str) -> Result<T, String> {
        let member = self
            .get(key)
            .ok_or_else(|| format!("missing field '{key}'"))?;
        T::read(member).map_err(|e| format!("field '{key}': {e}"))
    }

    /// Reads the member `key`, or `default` when it is absent — for fields
    /// that joined a format after files in the old format were written,
    /// and (with `None`) for fields only written when present.
    ///
    /// # Errors
    ///
    /// If `key` is present but its value is not a `T`.
    pub fn field_or<T: Json>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(member) => T::read(member).map_err(|e| format!("field '{key}': {e}")),
            None => Ok(default),
        }
    }

    /// Checks the `"type"` tag that leads every self-describing record.
    ///
    /// # Errors
    ///
    /// If the tag is absent or not `tag`.
    pub fn expect_type(&self, tag: &str) -> Result<(), String> {
        if self.get("type").and_then(Value::as_str) == Some(tag) {
            Ok(())
        } else {
            Err(format!("record is not of type '{tag}'"))
        }
    }
}

/// The writing half of the codec: an incremental writer for one JSON
/// object, `{"k":v,...}`, with correct comma placement and escaping.
pub struct JsonObject<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens an object into `out`.
    pub fn begin(out: &'a mut String) -> Self {
        out.push('{');
        JsonObject { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        let _ = write_escaped(self.out, key);
        self.out.push(':');
    }

    /// Writes any [`Json`] value as a field, in place.
    pub fn field<T: Json>(&mut self, key: &str, value: &T) -> &mut Self {
        self.key(key);
        value.write(self.out);
        self
    }

    /// Writes a field only when it is `Some` — the form of members that
    /// readers take as `None` when absent ([`Value::field_or`]).
    pub fn field_some<T: Json>(&mut self, key: &str, value: &Option<T>) -> &mut Self {
        match value {
            Some(present) => self.field(key, present),
            None => self,
        }
    }

    /// Writes a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write_escaped(self.out, value);
        self
    }

    /// Writes a string-or-null field.
    pub fn field_opt_str(&mut self, key: &str, value: Option<&str>) -> &mut Self {
        match value {
            Some(v) => self.field_str(key, v),
            None => self.field_raw(key, "null"),
        }
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.field(key, &value)
    }

    /// Writes a float field for human-facing reports: `null` for
    /// non-finite values. Records that are read back use
    /// [`field`](Self::field), whose `f64` spelling round-trips.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.field(key, &value.is_finite().then_some(value))
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.field(key, &value)
    }

    /// Writes an array-of-integers field.
    pub fn field_u64_array(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.key(key);
        write_array(self.out, values);
        self
    }

    /// Writes a field whose value is already valid JSON text.
    pub fn field_raw(&mut self, key: &str, raw_json: &str) -> &mut Self {
        self.key(key);
        self.out.push_str(raw_json);
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Declares a struct's JSON form — one ordered field list that expands to
/// its [`Json`] impl (and so its [`JsonRecord::write_json`]) and its
/// inherent `from_json`. Keys are the field names; types come from the
/// struct, so a field missing from the list is a compile error.
///
/// ```
/// use wormsim_observe::{json, json_record, JsonRecord};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe { id: u64, gain: f64, retries: u64, note: Option<String> }
///
/// json_record!(Probe as "probe" {
///     id,           // required
///     gain,
///     retries = 1,  // always written; reads as 1 from files that lack it
///     note?,        // an `Option` written only when `Some`
/// });
///
/// let probe = Probe { id: 7, gain: f64::INFINITY, retries: 1, note: None };
/// let text = probe.to_json();
/// assert_eq!(text, r#"{"type":"probe","id":7,"gain":"inf","retries":1}"#);
/// assert_eq!(Probe::from_json(&json::from_str(&text).unwrap()).unwrap(), probe);
/// ```
///
/// `as "tag"` leads the object with `"type":"tag"` and makes the reader
/// reject any other type; without it the object is anonymous (a nested
/// report).
#[macro_export]
macro_rules! json_record {
    ($record:ty $(as $type_tag:literal)? { $($fields:tt)* }) => {
        impl $crate::Json for $record {
            fn write(&self, out: &mut String) {
                let mut object = $crate::JsonObject::begin(out);
                $(object.field_str("type", $type_tag);)?
                $crate::json_record!(@write object self; $($fields)*);
                object.finish();
            }

            fn read(value: &$crate::json::Value) -> Result<Self, String> {
                $(value.expect_type($type_tag)?;)?
                $crate::json_record!(@read value {} $($fields)*)
            }
        }

        impl $record {
            /// Rebuilds the record from its parsed JSON form.
            ///
            /// # Errors
            ///
            /// Names the first missing or mistyped field.
            pub fn from_json(value: &$crate::json::Value) -> Result<Self, String> {
                <Self as $crate::Json>::read(value)
            }
        }
    };
    (@write $object:ident $this:ident;) => {};
    (@write $object:ident $this:ident; $name:ident ? $(, $($rest:tt)*)?) => {
        $object.field_some(stringify!($name), &$this.$name);
        $crate::json_record!(@write $object $this; $($($rest)*)?);
    };
    (@write $object:ident $this:ident; $name:ident $(= $default:expr)? $(, $($rest:tt)*)?) => {
        $object.field(stringify!($name), &$this.$name);
        $crate::json_record!(@write $object $this; $($($rest)*)?);
    };
    (@read $value:ident {$($done:tt)*}) => {
        Ok(Self { $($done)* })
    };
    (@read $value:ident {$($done:tt)*} $name:ident ? $(, $($rest:tt)*)?) => {
        $crate::json_record!(@read $value
            {$($done)* $name: $value.field_or(stringify!($name), None)?,} $($($rest)*)?)
    };
    (@read $value:ident {$($done:tt)*} $name:ident = $default:expr $(, $($rest:tt)*)?) => {
        $crate::json_record!(@read $value
            {$($done)* $name: $value.field_or(stringify!($name), $default)?,} $($($rest)*)?)
    };
    (@read $value:ident {$($done:tt)*} $name:ident $(, $($rest:tt)*)?) => {
        $crate::json_record!(@read $value
            {$($done)* $name: $value.field(stringify!($name))?,} $($($rest)*)?)
    };
}

/// Declares the JSON form of an internally tagged enum: each variant is an
/// object whose `$key` member names the variant, followed by the variant's
/// (all required) fields. `as "tag"` is as in
/// [`json_record!`](crate::json_record).
///
/// ```
/// use wormsim_observe::{json, json_union, Json, JsonRecord};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot, Rect { w: u32, h: u32 } }
///
/// json_union!(Shape, "kind" { Dot = "dot", Rect = "rect" { w, h } });
///
/// let text = Shape::Rect { w: 2, h: 3 }.to_json();
/// assert_eq!(text, r#"{"kind":"rect","w":2,"h":3}"#);
/// assert_eq!(Shape::read(&json::from_str(&text).unwrap()), Ok(Shape::Rect { w: 2, h: 3 }));
/// ```
#[macro_export]
macro_rules! json_union {
    ($union:ty $(as $type_tag:literal)?, $key:literal {
        $($variant:ident = $tag:literal $({ $($field:ident),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::Json for $union {
            fn write(&self, out: &mut String) {
                let mut object = $crate::JsonObject::begin(out);
                $(object.field_str("type", $type_tag);)?
                match self {$(
                    Self::$variant { $($($field),*)? } => {
                        object.field_str($key, $tag);
                        $($(object.field(stringify!($field), $field);)*)?
                    }
                )*}
                object.finish();
            }

            fn read(value: &$crate::json::Value) -> Result<Self, String> {
                $(value.expect_type($type_tag)?;)?
                match value.get($key).and_then($crate::json::Value::as_str) {
                    $(Some($tag) => Ok(Self::$variant {
                        $($($field: value.field(stringify!($field))?),*)?
                    }),)*
                    other => Err(format!("unknown '{}' tag {other:?}", $key)),
                }
            }
        }
    };
}

/// Declares the JSON form of a unit enum as a one-line tag table: each
/// variant is its string tag. Also gives the enum a `tag()` accessor for
/// CSV columns and manifests that print the same spelling.
///
/// ```
/// use wormsim_observe::{json, json_tags, Json};
///
/// #[derive(Clone, Copy, Debug, PartialEq)]
/// enum Verdict { Safe, Unsafe }
///
/// json_tags!(Verdict { Safe = "safe", Unsafe = "unsafe" });
///
/// assert_eq!(Verdict::Unsafe.tag(), "unsafe");
/// assert_eq!(Verdict::read(&json::from_str("\"safe\"").unwrap()), Ok(Verdict::Safe));
/// assert!(Verdict::read(&json::from_str("\"maybe\"").unwrap()).is_err());
/// ```
#[macro_export]
macro_rules! json_tags {
    ($tagged:ty { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl $tagged {
            /// The variant's stable string tag, as written to JSON.
            pub const fn tag(self) -> &'static str {
                match self {
                    $(Self::$variant => $tag,)*
                }
            }
        }

        impl $crate::Json for $tagged {
            fn write(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.tag());
                out.push('"');
            }

            fn read(value: &$crate::json::Value) -> Result<Self, String> {
                match value.as_str() {
                    $(Some($tag) => Ok(Self::$variant),)*
                    other => Err(format!("unknown {} tag {other:?}", stringify!($tagged))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn object_encoding_parses_back() {
        let mut out = String::new();
        let mut obj = JsonObject::begin(&mut out);
        obj.field_str("name", "a \"b\"\nc")
            .field_u64("n", 42)
            .field_f64("x", 2.5)
            .field_f64("bad", f64::NAN)
            .field_bool("ok", true)
            .field_opt_str("missing", None)
            .field_u64_array("xs", &[1, 2, 3])
            .field_raw("nested", "{\"k\":1}")
            .field("pairs", &vec![(1u8, 2u64)]);
        obj.finish();
        let v = json::from_str(&out).expect("valid JSON");
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"b\"\nc"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(2.5));
        assert!(v.get("bad").unwrap().is_null());
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").unwrap().is_null());
        assert_eq!(v.field::<Vec<u64>>("xs"), Ok(vec![1, 2, 3]));
        assert_eq!(v.get("nested").unwrap().field::<u64>("k"), Ok(1));
        assert_eq!(v.field::<Vec<(u8, u64)>>("pairs"), Ok(vec![(1, 2)]));
    }

    #[test]
    fn empty_object() {
        let mut out = String::new();
        JsonObject::begin(&mut out).finish();
        assert_eq!(out, "{}");
    }

    #[test]
    fn floats_round_trip_bit_exactly_through_their_one_spelling() {
        let awkward = [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::from_bits(99.0f64.to_bits() + 1),
            1.23e8,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in awkward {
            let back = f64::read(&json::from_str(&x.to_json()).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(f64::NAN.to_json(), "\"nan\"");
        assert!(f64::read(&Value::String("infinity".into())).is_err());
    }

    #[test]
    fn readers_name_the_field_and_check_ranges() {
        let v = json::from_str(r#"{"a":300,"b":"x","c":[1,2,3],"d":null,"e":-1}"#).unwrap();
        assert_eq!(v.field::<u16>("a"), Ok(300));
        let err = v.field::<u8>("a").unwrap_err();
        assert!(err.contains("'a'") && err.contains("u8"), "{err}");
        assert!(v.field::<u64>("b").unwrap_err().contains("'b'"));
        assert!(v.field::<u64>("e").is_err(), "negative is not unsigned");
        assert!(v
            .field::<u64>("zz")
            .unwrap_err()
            .contains("missing field 'zz'"));
        assert_eq!(v.field::<[u64; 3]>("c"), Ok([1, 2, 3]));
        assert!(v.field::<[u64; 2]>("c").unwrap_err().contains("expected 2"));
        assert!(v.field::<(u64, u64)>("c").is_err());
        assert_eq!(v.field::<Option<String>>("d"), Ok(None));
        assert_eq!(v.field_or("zz", 9u64), Ok(9));
        assert_eq!(v.field_or("a", 9u64), Ok(300));
        assert!(v.field_or("b", 9u64).is_err(), "present but mistyped");
        assert!(Value::Null.field::<u64>("a").is_err(), "not an object");
    }
}
