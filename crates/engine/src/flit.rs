//! Flits: the fixed-size units of wormhole switching.

use std::fmt;
use std::num::NonZeroU32;
use wormsim_observe::json::Value;
use wormsim_observe::{json_tags, Json};

/// A message identifier, valid while the message is in flight.
///
/// Ids index a slab inside the [`Network`](crate::Network) and are recycled
/// after delivery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(NonZeroU32);

// The index is stored plus one, so `Option<MessageId>` — a lane's route
// owner, an output VC's reservation — is four bytes with `None` as zero.
const _: () = assert!(std::mem::size_of::<Option<MessageId>>() == 4);

impl MessageId {
    /// The id of slab slot `index` (`None` for `u32::MAX`).
    pub(crate) fn from_index(index: u32) -> Option<MessageId> {
        NonZeroU32::new(index.wrapping_add(1)).map(MessageId)
    }

    /// The raw slab index.
    pub const fn index(self) -> u32 {
        self.0.get() - 1
    }
}

/// A message id's JSON form is its raw slab index.
impl Json for MessageId {
    fn write(&self, out: &mut String) {
        self.index().write(out);
    }

    fn read(value: &Value) -> Result<Self, String> {
        let index = u32::read(value)?;
        MessageId::from_index(index).ok_or_else(|| format!("message id {index} is out of range"))
    }
}

impl fmt::Debug for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.index())
    }
}

/// The position of a flit within its message.
///
/// The discriminant's bit 0 is "carries the head", bit 1 "ends the
/// message", which is how a flit arena slot stores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FlitKind {
    /// First flit; carries the routing information.
    Head = 0b01,
    /// Interior flit.
    Body = 0b00,
    /// Last flit; releases channels as it passes.
    Tail = 0b10,
    /// A single-flit message: head and tail at once.
    Single = 0b11,
}

json_tags!(FlitKind {
    Head = "head",
    Body = "body",
    Tail = "tail",
    Single = "single",
});

impl FlitKind {
    /// Whether this flit carries the routing header.
    pub fn is_head(self) -> bool {
        self as u8 & 0b01 != 0
    }

    /// Whether this flit ends its message.
    pub fn is_tail(self) -> bool {
        self as u8 & 0b10 != 0
    }

    /// The kind from its two low bits; higher bits are ignored.
    pub(crate) fn from_bits(bits: u32) -> FlitKind {
        match bits & 0b11 {
            0b00 => FlitKind::Body,
            0b01 => FlitKind::Head,
            0b10 => FlitKind::Tail,
            _ => FlitKind::Single,
        }
    }

    /// The kind of flit `i` (counting from 0) of a `length`-flit message.
    pub(crate) fn at(i: u32, length: u32) -> FlitKind {
        FlitKind::from_bits(u32::from(i == 0) | u32::from(i + 1 == length) << 1)
    }
}

/// One flit in a buffer or on a wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit {
    /// The message this flit belongs to.
    pub msg: MessageId,
    /// Head/body/tail position.
    pub kind: FlitKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(index: u32) -> MessageId {
        MessageId::from_index(index).unwrap()
    }

    #[test]
    fn ids_round_trip_and_keep_their_order() {
        assert_eq!(id(0).index(), 0);
        assert_eq!(id(u32::MAX - 1).index(), u32::MAX - 1);
        assert!(MessageId::from_index(u32::MAX).is_none());
        assert!(id(2) < id(3), "the stored offset keeps slab order");
        assert_eq!(MessageId::read(&Value::Number(7.0)), Ok(id(7)));
        assert!(MessageId::read(&Value::Number(f64::from(u32::MAX))).is_err());
    }

    #[test]
    fn kinds_follow_the_position_in_the_message() {
        let kinds: Vec<FlitKind> = (0..4).map(|i| FlitKind::at(i, 4)).collect();
        use FlitKind::{Body, Head, Tail};
        assert_eq!(kinds, [Head, Body, Body, Tail]);
        assert_eq!(FlitKind::at(0, 1), FlitKind::Single);
        assert!(FlitKind::Single.is_head() && FlitKind::Single.is_tail());
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        for kind in [
            FlitKind::Head,
            FlitKind::Body,
            FlitKind::Tail,
            FlitKind::Single,
        ] {
            assert_eq!(FlitKind::from_bits(kind as u32), kind);
        }
    }
}
