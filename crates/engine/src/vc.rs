//! Input virtual-channel storage: one [`Lanes`] store holds every input VC
//! ("lane"), so memory follows occupancy, not class count. A lane is an
//! 8-byte [`Lane`] header plus its owning message in a cold array. Network
//! lanes keep their flits in one fixed-stride ring arena, `capacity` 4-byte
//! slots each, wrapping by compare. An injection lane streams one message
//! and holds all of it that has not left, so it stores no flits: it is a
//! cursor over that message. Network lanes come first, so a lane's kind is
//! one compare; `Network::lanes` gives the numbering.

use crate::{Flit, FlitKind, MessageId};

/// Where a routed input VC sends its flits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RouteTarget {
    /// Forward on direction `dir` (`Direction::index()`), physical VC `vc`.
    Link { dir: u8, vc: u8 },
    /// Deliver locally: this node is the destination.
    Eject,
}

/// The hot part of a lane: what switch allocation and a flit move read.
#[derive(Clone, Copy, Debug, Default)]
struct Lane {
    /// Flits buffered (network lane) or left to send (injection lane).
    len: u16,
    /// Ring slot of the front flit (network lane), or flits already sent
    /// (injection lane: zero until the head leaves).
    start: u16,
    /// Route of the message whose head was routed; `None` while the front
    /// is an unrouted head or the lane is empty.
    route: Option<RouteTarget>,
}

const _: () = assert!(std::mem::size_of::<Lane>() == 8);

#[derive(Debug)]
pub(crate) struct Lanes {
    lanes: Vec<Lane>,
    /// The network lanes' flit rings, `capacity` slots each. A slot holds
    /// a flit's message index above its two [`FlitKind`] bits.
    flits: Vec<u32>,
    /// The message owning each lane: the one an injection lane streams or
    /// whose route a lane holds. A route outlives the flits until the tail
    /// passes, so fault handling can revoke it after they drained past.
    owner: Vec<Option<MessageId>>,
    /// Lanes `0..net` are network lanes, the rest injection lanes.
    net: u32,
    capacity: u32,
}

impl Lanes {
    pub fn new(net: usize, injection: usize, capacity: u32) -> Lanes {
        assert!(capacity <= u32::from(u16::MAX), "validated capacity");
        Lanes {
            lanes: vec![Lane::default(); net + injection],
            flits: vec![0; net * capacity as usize],
            owner: vec![None; net + injection],
            net: u32::try_from(net).expect("lane indices are u32"),
            capacity,
        }
    }

    pub fn count(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    pub fn is_injection(&self, ivc: u32) -> bool {
        ivc >= self.net
    }

    /// Flits in lane `ivc`: buffered, or left to send at the source.
    #[inline]
    pub fn len(&self, ivc: u32) -> u32 {
        u32::from(self.lanes[ivc as usize].len)
    }

    #[inline]
    pub fn route(&self, ivc: u32) -> Option<RouteTarget> {
        self.lanes[ivc as usize].route
    }

    pub fn owner(&self, ivc: u32) -> Option<MessageId> {
        self.owner[ivc as usize]
    }

    /// Routes lane `ivc` for its owner, or with `None` revokes both.
    pub fn set_route(&mut self, ivc: u32, route: Option<(RouteTarget, MessageId)>) {
        self.lanes[ivc as usize].route = route.map(|(target, _)| target);
        self.owner[ivc as usize] = route.map(|(_, msg)| msg);
    }

    /// Starts streaming `msg` from the idle injection lane `ivc`.
    pub fn start_message(&mut self, ivc: u32, msg: MessageId, length: u32) {
        let lane = &mut self.lanes[ivc as usize];
        lane.len = u16::try_from(length).expect("assembly bounds message length");
        lane.start = 0;
        self.owner[ivc as usize] = Some(msg);
    }

    #[inline]
    pub fn push(&mut self, ivc: u32, flit: Flit) {
        let lane = &mut self.lanes[ivc as usize];
        debug_assert!(ivc < self.net && u32::from(lane.len) < self.capacity);
        let slot = wrap(u32::from(lane.start) + u32::from(lane.len), self.capacity);
        self.flits[ivc as usize * self.capacity as usize + slot] =
            flit.msg.index() << 2 | flit.kind as u32;
        lane.len += 1;
    }

    /// Removes and returns the front flit of the non-empty lane `ivc`; the
    /// tail clears the route.
    #[inline]
    pub fn pop(&mut self, ivc: u32) -> Flit {
        let flit = self.front(ivc).expect("pop from a non-empty lane");
        let lane = &mut self.lanes[ivc as usize];
        lane.len -= 1;
        lane.start += 1;
        if ivc < self.net && u32::from(lane.start) == self.capacity {
            lane.start = 0;
        }
        if flit.kind.is_tail() {
            lane.route = None;
            self.owner[ivc as usize] = None;
        }
        flit
    }

    #[inline]
    pub fn front(&self, ivc: u32) -> Option<Flit> {
        self.flits(ivc).next()
    }

    /// Lane `ivc`'s flits, front first.
    #[inline]
    pub fn flits(&self, ivc: u32) -> impl Iterator<Item = Flit> + '_ {
        let lane = self.lanes[ivc as usize];
        let start = u32::from(lane.start);
        let end = start + u32::from(lane.len);
        (start..end).map(move |at| {
            if ivc < self.net {
                let slot = ivc as usize * self.capacity as usize + wrap(at, self.capacity);
                Flit {
                    msg: MessageId::from_index(self.flits[slot] >> 2).expect("a 30-bit index"),
                    kind: FlitKind::from_bits(self.flits[slot]),
                }
            } else {
                Flit {
                    msg: self.owner[ivc as usize].expect("a lane with flits streams a message"),
                    kind: FlitKind::at(at, end),
                }
            }
        })
    }

    /// Whether a tail is in lane `ivc`, i.e. its front message is fully
    /// buffered: the store-and-forward forwarding condition.
    pub fn front_message_complete(&self, ivc: u32) -> bool {
        self.flits(ivc).any(|flit| flit.kind.is_tail())
    }

    /// Removes every flit of `msg` from lane `ivc`, keeping the rest in
    /// order. Returns the number removed and whether the front was `msg`'s
    /// (then the new front needs a look); the route stays for the caller.
    pub fn purge_message(&mut self, ivc: u32, msg: MessageId) -> (u32, bool) {
        let front_was_msg = self.front(ivc).is_some_and(|f| f.msg == msg);
        let kept: Vec<Flit> = self.flits(ivc).filter(|f| f.msg != msg).collect();
        let removed = self.len(ivc) - kept.len() as u32;
        if removed > 0 {
            // An injection lane streams one message, so it is empty now.
            let lane = &mut self.lanes[ivc as usize];
            (lane.len, lane.start) = (0, 0);
            kept.into_iter().for_each(|flit| self.push(ivc, flit));
        }
        (removed, front_was_msg)
    }
}

/// `slot` brought into a ring of `capacity` slots, given `slot < 2 *
/// capacity`: a compare, not a division.
#[inline]
fn wrap(slot: u32, capacity: u32) -> usize {
    slot.checked_sub(capacity).unwrap_or(slot) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn id(index: u32) -> MessageId {
        MessageId::from_index(index).unwrap()
    }

    /// The flits of message `msg`, `length` of them, head first.
    fn message(msg: u32, length: u32) -> Vec<Flit> {
        (0..length)
            .map(|i| Flit {
                msg: id(msg),
                kind: FlitKind::at(i, length),
            })
            .collect()
    }

    fn drain(lanes: &mut Lanes, ivc: u32) -> Vec<Flit> {
        std::iter::from_fn(|| (lanes.len(ivc) > 0).then(|| lanes.pop(ivc))).collect()
    }

    #[test]
    fn rings_wrap_at_capacity_two_and_three() {
        for capacity in [2, 3] {
            let mut lanes = Lanes::new(2, 0, capacity);
            // Lane 1 is the neighbour whose slots a wrong stride would hit.
            lanes.push(1, message(9, 1)[0]);
            let flits = [message(1, 7), message(2, 4)].concat();
            let mut sent = Vec::new();
            for &flit in &flits {
                if lanes.len(0) == capacity {
                    sent.push(lanes.pop(0));
                }
                lanes.push(0, flit);
                assert!(lanes.len(0) <= capacity);
            }
            sent.extend(drain(&mut lanes, 0));
            assert_eq!(sent, flits, "capacity {capacity}: FIFO across the wrap");
            assert_eq!(lanes.front(1).map(|f| f.msg), Some(id(9)));
        }
    }

    #[test]
    fn cursors_stream_the_flit_kinds_of_a_message() {
        let mut lanes = Lanes::new(1, 2, 2);
        for length in [1, 2, 16] {
            lanes.start_message(2, id(length), length);
            assert_eq!(lanes.len(2), length, "flits left before the head leaves");
            assert!(lanes.front_message_complete(2));
            let link = RouteTarget::Link { dir: 3, vc: 7 };
            lanes.set_route(2, Some((link, id(length))));
            let expected = message(length, length);
            assert_eq!(lanes.flits(2).collect::<Vec<_>>(), expected);
            let streamed = drain(&mut lanes, 2);
            assert_eq!(streamed, expected, "length {length}");
            assert_eq!(lanes.len(2), 0);
            assert_eq!(
                (lanes.route(2), lanes.owner(2)),
                (None, None),
                "the tail clears the route"
            );
        }
        assert_eq!(lanes.len(1), 0, "the other cursor is untouched");
    }

    #[test]
    fn routes_persist_until_the_tail_leaves() {
        let mut lanes = Lanes::new(1, 0, 4);
        for flit in message(1, 3) {
            lanes.push(0, flit);
        }
        for target in [RouteTarget::Eject, RouteTarget::Link { dir: 63, vc: 254 }] {
            lanes.set_route(0, Some((target, id(1))));
            assert_eq!(lanes.route(0), Some(target));
        }
        lanes.pop(0);
        lanes.pop(0);
        assert!(lanes.route(0).is_some(), "the route outlives the head");
        assert_eq!(lanes.pop(0).kind, FlitKind::Tail);
        assert_eq!((lanes.route(0), lanes.owner(0)), (None, None));
    }

    #[test]
    fn purge_keeps_the_other_messages_in_order() {
        // Network lane, capacity 3, front at slot 2 so the purge compacts
        // across the wrap: tail of m1, then m2's head and body.
        let mut lanes = Lanes::new(1, 1, 3);
        for flit in message(7, 2) {
            lanes.push(0, flit);
        }
        drain(&mut lanes, 0);
        let m1_tail = message(1, 2)[1];
        lanes.push(0, m1_tail);
        let m2 = &message(2, 4)[..2];
        m2.iter().for_each(|&flit| lanes.push(0, flit));
        assert_eq!(lanes.purge_message(0, id(2)), (2, false));
        assert_eq!(lanes.flits(0).collect::<Vec<_>>(), [m1_tail]);
        m2.iter().for_each(|&flit| lanes.push(0, flit));
        // The front was purged: the caller sees m2's head exposed.
        assert_eq!(lanes.purge_message(0, id(1)), (1, true));
        assert_eq!(lanes.flits(0).collect::<Vec<_>>(), m2);
        assert!(!lanes.front_message_complete(0), "m1's tail went with it");
        assert_eq!(lanes.purge_message(0, id(5)), (0, false));

        // Injection lane: its one message goes whole, the route stays for
        // the caller to revoke.
        lanes.start_message(1, id(3), 16);
        lanes.set_route(1, Some((RouteTarget::Eject, id(3))));
        lanes.pop(1);
        assert_eq!(lanes.purge_message(1, id(4)), (0, false));
        assert_eq!(lanes.purge_message(1, id(3)), (15, true));
        assert_eq!(lanes.len(1), 0);
        assert!(!lanes.front_message_complete(1));
        assert_eq!(lanes.route(1), Some(RouteTarget::Eject));
        assert_eq!(lanes.purge_message(1, id(3)), (0, false), "nothing left");
    }

    #[test]
    fn store_and_forward_sees_a_message_complete_only_with_its_tail() {
        let mut lanes = Lanes::new(1, 0, 16);
        let m1 = message(1, 4);
        let m2 = message(2, 3);
        for &flit in &m1[..3] {
            lanes.push(0, flit);
            assert!(!lanes.front_message_complete(0));
        }
        lanes.push(0, m1[3]);
        assert!(lanes.front_message_complete(0));
        lanes.push(0, m2[0]);
        for _ in &m1 {
            lanes.pop(0);
        }
        assert!(!lanes.front_message_complete(0), "m1's tail has left");
        lanes.push(0, m2[1]);
        lanes.push(0, m2[2]);
        assert!(lanes.front_message_complete(0));
    }

    /// One step of the differential test below, over two network lanes of
    /// capacity 3 (0 and 1) and one injection lane (2).
    #[derive(Clone, Debug)]
    enum Op {
        Push { lane: u32, msg: u32, kind: u32 },
        Pop { lane: u32 },
        Purge { lane: u32, msg: u32 },
        Start { msg: u32, length: u32 },
        Route { lane: u32, msg: u32 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..2, 0u32..4, 0u32..4).prop_map(|(lane, msg, kind)| Op::Push { lane, msg, kind }),
            (0u32..3).prop_map(|lane| Op::Pop { lane }),
            (0u32..3, 0u32..4).prop_map(|(lane, msg)| Op::Purge { lane, msg }),
            (0u32..4, 1u32..6).prop_map(|(msg, length)| Op::Start { msg, length }),
            (0u32..3, 0u32..4).prop_map(|(lane, msg)| Op::Route { lane, msg }),
        ]
    }

    /// The representation `Lanes` replaced: a `VecDeque` of flits, a tail
    /// count and the route fields per lane (`owner` also set by a start,
    /// as the injection cursor's id).
    #[derive(Clone, Debug, Default)]
    struct Model {
        buffer: VecDeque<Flit>,
        route: Option<RouteTarget>,
        owner: Option<MessageId>,
        tails: u16,
    }

    impl Model {
        fn push(&mut self, flit: Flit) {
            self.tails += u16::from(flit.kind.is_tail());
            self.buffer.push_back(flit);
        }

        fn pop(&mut self) -> Flit {
            let flit = self.buffer.pop_front().unwrap();
            if flit.kind.is_tail() {
                self.tails -= 1;
                self.route = None;
                self.owner = None;
            }
            flit
        }

        fn purge(&mut self, msg: MessageId) -> (u32, bool) {
            let front_was_msg = self.buffer.front().is_some_and(|f| f.msg == msg);
            let before = self.buffer.len();
            self.buffer.retain(|f| f.msg != msg);
            self.tails = self.buffer.iter().filter(|f| f.kind.is_tail()).count() as u16;
            ((before - self.buffer.len()) as u32, front_was_msg)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Lanes` against per-lane `VecDeque`s over random pushes, pops,
        /// purges, message starts and routes: same flits in the same order,
        /// same occupancy, routes and completeness after every step.
        #[test]
        fn lanes_match_the_vecdeque_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
            const CAPACITY: u32 = 3;
            let mut lanes = Lanes::new(2, 1, CAPACITY);
            let mut model = vec![Model::default(); 3];
            for op in ops {
                match op {
                    Op::Push { lane, msg, kind } => {
                        if model[lane as usize].buffer.len() < CAPACITY as usize {
                            let flit = Flit { msg: id(msg), kind: FlitKind::from_bits(kind) };
                            lanes.push(lane, flit);
                            model[lane as usize].push(flit);
                        }
                    }
                    Op::Pop { lane } => {
                        if !model[lane as usize].buffer.is_empty() {
                            prop_assert_eq!(lanes.pop(lane), model[lane as usize].pop());
                        }
                    }
                    Op::Purge { lane, msg } => {
                        prop_assert_eq!(
                            lanes.purge_message(lane, id(msg)),
                            model[lane as usize].purge(id(msg))
                        );
                    }
                    Op::Start { msg, length } => {
                        let m = &mut model[2];
                        if m.buffer.is_empty() && m.route.is_none() {
                            lanes.start_message(2, id(msg), length);
                            message(msg, length).into_iter().for_each(|flit| m.push(flit));
                            m.owner = Some(id(msg));
                        }
                    }
                    Op::Route { lane, msg } => {
                        // An injection lane is routed for its own message.
                        let msg = match model[lane as usize].buffer.front() {
                            Some(front) if lane == 2 => front.msg.index(),
                            None if lane == 2 => continue,
                            _ => msg,
                        };
                        let target = RouteTarget::Link { dir: msg as u8, vc: lane as u8 };
                        lanes.set_route(lane, Some((target, id(msg))));
                        model[lane as usize].route = Some(target);
                        model[lane as usize].owner = Some(id(msg));
                    }
                }
                for (ivc, m) in model.iter().enumerate() {
                    let ivc = ivc as u32;
                    prop_assert_eq!(lanes.flits(ivc).collect::<Vec<_>>(), m.buffer.iter().copied().collect::<Vec<_>>());
                    prop_assert_eq!(lanes.len(ivc) as usize, m.buffer.len());
                    prop_assert_eq!(lanes.front(ivc), m.buffer.front().copied());
                    prop_assert_eq!(lanes.route(ivc), m.route);
                    prop_assert_eq!(lanes.owner(ivc), m.owner);
                    prop_assert_eq!(lanes.front_message_complete(ivc), m.tails > 0);
                }
            }
        }
    }
}
