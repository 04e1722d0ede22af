//! In-flight message bookkeeping.

use crate::MessageId;
use wormsim_routing::MessageRouteState;
use wormsim_topology::NodeId;

/// Everything the simulator tracks about one in-flight message.
#[derive(Clone, Debug)]
pub(crate) struct MessageRec {
    /// The routing state carried by the head flit.
    pub route: MessageRouteState,
    /// Message length in flits.
    pub length: u32,
    /// Cycle the message was generated (entered the source queue).
    pub generated: u64,
    /// Cycle the head flit first left the source node, once known.
    pub injected: Option<u64>,
    /// The congestion-control class at the source node.
    pub injection_class: u32,
    /// Source node (for releasing the congestion-control slot).
    pub src: NodeId,
}

/// A slab of [`MessageRec`]s with id recycling.
#[derive(Debug, Default)]
pub(crate) struct MessageSlab {
    entries: Vec<Option<MessageRec>>,
    free: Vec<u32>,
    live: usize,
}

impl MessageSlab {
    pub fn insert(&mut self, rec: MessageRec) -> MessageId {
        self.live += 1;
        let index = if let Some(index) = self.free.pop() {
            self.entries[index as usize] = Some(rec);
            index
        } else {
            self.entries.push(Some(rec));
            (self.entries.len() - 1) as u32
        };
        assert!(index < 1 << 30, "a flit arena slot holds a 30-bit index");
        MessageId::from_index(index).expect("an index below 2^30 is an id")
    }

    pub fn get(&self, id: MessageId) -> &MessageRec {
        self.entries[id.index() as usize]
            .as_ref()
            .expect("message id refers to a live message")
    }

    pub fn get_mut(&mut self, id: MessageId) -> &mut MessageRec {
        self.entries[id.index() as usize]
            .as_mut()
            .expect("message id refers to a live message")
    }

    pub fn remove(&mut self, id: MessageId) -> MessageRec {
        let rec = self.entries[id.index() as usize]
            .take()
            .expect("message id refers to a live message");
        self.free.push(id.index());
        self.live -= 1;
        rec
    }

    pub fn live(&self) -> usize {
        self.live
    }

    /// Iterates over live messages in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, &MessageRec)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((MessageId::from_index(i as u32)?, slot.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> MessageRec {
        MessageRec {
            route: MessageRouteState::new(NodeId::new(0), NodeId::new(1)),
            length: 16,
            generated: 0,
            injected: None,
            injection_class: 0,
            src: NodeId::new(0),
        }
    }

    #[test]
    fn ids_are_recycled() {
        let mut slab = MessageSlab::default();
        let a = slab.insert(rec());
        let b = slab.insert(rec());
        assert_ne!(a, b);
        assert_eq!(slab.live(), 2);
        slab.remove(a);
        assert_eq!(slab.live(), 1);
        let c = slab.insert(rec());
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn get_mut_mutates() {
        let mut slab = MessageSlab::default();
        let id = slab.insert(rec());
        slab.get_mut(id).injected = Some(5);
        assert_eq!(slab.get(id).injected, Some(5));
    }

    #[test]
    #[should_panic(expected = "live message")]
    fn stale_access_panics() {
        let mut slab = MessageSlab::default();
        let id = slab.insert(rec());
        slab.remove(id);
        let _ = slab.get(id);
    }
}
