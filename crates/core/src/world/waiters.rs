//! Per-block waiter queues, threaded through the processes.
//!
//! Every read that blocks on an in-flight I/O registers here; the disk
//! completion drains the block's queue and wakes everyone. A process in
//! `WaitBlock` waits on exactly one block, so each queue is an intrusive
//! singly linked list through one `next` link per process, and a block
//! holds only its queue's `(head, tail)` pair, 4 bytes per file block.
//! Push and drain are O(1) per waiter, and nothing allocates after
//! construction.

use rt_disk::{BlockId, ProcId};

/// Link value for "no process": an empty queue's ends, or the `next` of
/// the last waiter. A linked process is stored as its index plus one, so
/// an empty table is all zero bytes.
const NONE: u16 = 0;
/// `next` value of a process registered on no block.
const FREE: u16 = u16::MAX;

fn link(proc: ProcId) -> u16 {
    proc.0 + 1
}

fn unlink(link: u16) -> usize {
    link as usize - 1
}

/// Block-number → waiting-processes table.
pub(crate) struct WaiterTable {
    /// Per block: `[head, tail]` of its queue, both `NONE` when empty.
    ends: Vec<[u16; 2]>,
    /// Per process: the next waiter on the same block (`NONE` at the
    /// tail), or `FREE` when the process waits on no block.
    next: Vec<u16>,
    /// Registrations across every block.
    len: usize,
}

impl WaiterTable {
    /// A table covering blocks `0..file_blocks` and processes
    /// `0..procs`, all queues empty.
    pub fn new(file_blocks: u32, procs: u16) -> Self {
        assert!(
            procs < FREE,
            "process ids must leave room for the sentinels"
        );
        WaiterTable {
            ends: vec![[NONE; 2]; file_blocks as usize],
            next: vec![FREE; procs as usize],
            len: 0,
        }
    }

    /// Register `proc` as waiting for `block`. Wake order is registration
    /// order. A process holds at most one registration at a time.
    pub fn push(&mut self, block: BlockId, proc: ProcId) {
        let p = proc.index();
        debug_assert_eq!(self.next[p], FREE, "{proc:?} already waits on a block");
        self.next[p] = NONE;
        let [head, tail] = &mut self.ends[block.index()];
        if *tail == NONE {
            *head = link(proc);
        } else {
            self.next[unlink(*tail)] = link(proc);
        }
        *tail = link(proc);
        self.len += 1;
    }

    /// Visit every waiter for `block` in registration order without
    /// draining the queue (used for latency-attribution transitions, where
    /// the wait continues but its component changes).
    pub fn for_each(&self, block: BlockId, mut f: impl FnMut(ProcId)) {
        let mut cur = self.ends[block.index()][0];
        while cur != NONE {
            let p = unlink(cur);
            f(ProcId(p as u16));
            cur = self.next[p];
        }
    }

    /// Total registrations across every block. A drained run must report
    /// zero — anything left is a waiter whose wake will never fire.
    pub fn total(&self) -> usize {
        self.len
    }

    /// Is anyone waiting for `block`?
    pub fn has_waiters(&self, block: BlockId) -> bool {
        self.ends[block.index()][0] != NONE
    }

    /// Remove `proc`'s registration from `block`'s queue, preserving the
    /// registration order of everyone else. Returns whether an entry was
    /// removed (used when a waiting process crashes — its wake must never
    /// fire).
    pub fn remove(&mut self, block: BlockId, proc: ProcId) -> bool {
        if self.next[proc.index()] == FREE {
            return false;
        }
        let target = link(proc);
        let [head, tail] = &mut self.ends[block.index()];
        let mut prev = NONE;
        let mut cur = *head;
        while cur != NONE {
            let after = self.next[unlink(cur)];
            if cur == target {
                if prev == NONE {
                    *head = after;
                } else {
                    self.next[unlink(prev)] = after;
                }
                if *tail == cur {
                    *tail = prev;
                }
                self.next[proc.index()] = FREE;
                self.len -= 1;
                return true;
            }
            prev = cur;
            cur = after;
        }
        false
    }

    /// Move every waiter for `block` into `out` (appended in registration
    /// order), leaving the queue empty.
    pub fn drain_into(&mut self, block: BlockId, out: &mut Vec<ProcId>) {
        let ends = &mut self.ends[block.index()];
        let mut cur = ends[0];
        *ends = [NONE; 2];
        while cur != NONE {
            let p = unlink(cur);
            out.push(ProcId(p as u16));
            cur = std::mem::replace(&mut self.next[p], FREE);
            self.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn drain_preserves_registration_order() {
        let mut t = WaiterTable::new(8, 7);
        for p in 0..7u16 {
            t.push(BlockId(3), ProcId(p));
        }
        let mut out = Vec::new();
        t.drain_into(BlockId(3), &mut out);
        assert_eq!(out, (0..7).map(ProcId).collect::<Vec<_>>());
        assert_eq!(t.total(), 0);
        out.clear();
        t.drain_into(BlockId(3), &mut out);
        assert!(out.is_empty(), "drain leaves the queue empty");
    }

    #[test]
    fn queues_are_independent() {
        let mut t = WaiterTable::new(4, 10);
        t.push(BlockId(0), ProcId(9));
        t.push(BlockId(2), ProcId(1));
        let mut out = Vec::new();
        t.drain_into(BlockId(2), &mut out);
        assert_eq!(out, vec![ProcId(1)]);
        out.clear();
        t.drain_into(BlockId(0), &mut out);
        assert_eq!(out, vec![ProcId(9)]);
    }

    #[test]
    fn remove_preserves_order() {
        let mut t = WaiterTable::new(2, 7);
        for p in 0..7u16 {
            t.push(BlockId(1), ProcId(p));
        }
        // Head, middle and tail entries.
        assert!(t.remove(BlockId(1), ProcId(0)));
        assert!(t.remove(BlockId(1), ProcId(2)));
        assert!(t.remove(BlockId(1), ProcId(6)));
        // A proc that is not registered is a no-op.
        assert!(!t.remove(BlockId(1), ProcId(2)));
        // Neither is one registered on another block.
        t.push(BlockId(0), ProcId(6));
        assert!(!t.remove(BlockId(1), ProcId(6)));
        // The tail moved back: a new registration still lands last.
        t.push(BlockId(1), ProcId(2));
        let mut out = Vec::new();
        t.drain_into(BlockId(1), &mut out);
        assert_eq!(out, [1, 3, 4, 5, 2].map(ProcId).to_vec());
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn remove_only_entry_empties_queue() {
        let mut t = WaiterTable::new(1, 5);
        t.push(BlockId(0), ProcId(4));
        assert!(t.has_waiters(BlockId(0)));
        assert!(t.remove(BlockId(0), ProcId(4)));
        assert!(!t.has_waiters(BlockId(0)));
        t.push(BlockId(0), ProcId(3));
        let mut out = Vec::new();
        t.drain_into(BlockId(0), &mut out);
        assert_eq!(out, vec![ProcId(3)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already waits on a block")]
    fn second_registration_is_rejected() {
        let mut t = WaiterTable::new(2, 1);
        t.push(BlockId(0), ProcId(0));
        t.push(BlockId(1), ProcId(0));
    }

    /// One table operation; indices are reduced modulo the table shape.
    #[derive(Clone, Debug)]
    enum Op {
        Push { block: u8, proc: u8 },
        Remove { block: u8, proc: u8 },
        Drain { block: u8 },
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(block, proc)| Op::Push { block, proc }),
            (any::<u8>(), any::<u8>()).prop_map(|(block, proc)| Op::Remove { block, proc }),
            any::<u8>().prop_map(|block| Op::Drain { block }),
        ]
    }

    proptest! {
        /// Random operation sequences agree with a `Vec<Vec<ProcId>>`
        /// model on every queue's contents and order after every step.
        #[test]
        fn matches_vec_of_vecs_model(
            blocks in 1u32..6,
            procs in 1u16..9,
            ops in prop::collection::vec(op(), 0..80),
        ) {
            let mut table = WaiterTable::new(blocks, procs);
            let mut model: Vec<Vec<ProcId>> = vec![Vec::new(); blocks as usize];
            for op in ops {
                match op {
                    Op::Push { block, proc } => {
                        let p = ProcId(proc as u16 % procs);
                        // A process waits on at most one block.
                        if model.iter().all(|q| !q.contains(&p)) {
                            let b = block as usize % blocks as usize;
                            table.push(BlockId(b as u32), p);
                            model[b].push(p);
                        }
                    }
                    Op::Remove { block, proc } => {
                        let p = ProcId(proc as u16 % procs);
                        let b = block as usize % blocks as usize;
                        let pos = model[b].iter().position(|&w| w == p);
                        if let Some(i) = pos {
                            model[b].remove(i);
                        }
                        prop_assert_eq!(table.remove(BlockId(b as u32), p), pos.is_some());
                    }
                    Op::Drain { block } => {
                        let b = block as usize % blocks as usize;
                        let mut out = Vec::new();
                        table.drain_into(BlockId(b as u32), &mut out);
                        prop_assert_eq!(out, std::mem::take(&mut model[b]));
                    }
                }
                for (b, queue) in model.iter().enumerate() {
                    let block = BlockId(b as u32);
                    let mut seen = Vec::new();
                    table.for_each(block, |p| seen.push(p));
                    prop_assert_eq!(&seen, queue);
                    prop_assert_eq!(table.has_waiters(block), !queue.is_empty());
                }
                prop_assert_eq!(table.total(), model.iter().map(Vec::len).sum::<usize>());
            }
        }
    }
}
