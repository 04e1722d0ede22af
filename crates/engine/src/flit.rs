//! Flits: the fixed-size units of wormhole switching.

use std::fmt;
use wormsim_observe::json::Value;
use wormsim_observe::{json_tags, Json};

/// A message identifier, valid while the message is in flight.
///
/// Ids index a slab inside the [`Network`](crate::Network) and are recycled
/// after delivery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub(crate) u32);

impl MessageId {
    /// The raw slab index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

/// A message id's JSON form is its raw slab index.
impl Json for MessageId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }

    fn read(value: &Value) -> Result<Self, String> {
        u32::read(value).map(MessageId)
    }
}

impl fmt::Debug for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The position of a flit within its message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries the routing information.
    Head,
    /// Interior flit.
    Body,
    /// Last flit; releases channels as it passes.
    Tail,
    /// A single-flit message: head and tail at once.
    Single,
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
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit ends its message.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
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

impl Flit {
    /// Builds the flit sequence of a message with `length` flits.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn sequence(msg: MessageId, length: u32) -> impl Iterator<Item = Flit> {
        assert!(length > 0, "messages have at least one flit");
        (0..length).map(move |i| Flit {
            msg,
            kind: if length == 1 {
                FlitKind::Single
            } else if i == 0 {
                FlitKind::Head
            } else if i == length - 1 {
                FlitKind::Tail
            } else {
                FlitKind::Body
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_structure() {
        let flits: Vec<Flit> = Flit::sequence(MessageId(3), 4).collect();
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().all(|f| f.msg == MessageId(3)));
    }

    #[test]
    fn single_flit_message() {
        let flits: Vec<Flit> = Flit::sequence(MessageId(0), 1).collect();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::Single);
        assert!(flits[0].kind.is_head() && flits[0].kind.is_tail());
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
    }
}
