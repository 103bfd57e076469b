//! An intrusive, index-linked LRU list.
//!
//! Entries live in a slab; links are `u32` indices, so touching an entry is
//! a few array writes with no allocation. The buffer pool stores its own
//! payload keyed by the slot id this list hands out.

/// Sentinel for "no slot".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    in_list: bool,
}

/// Doubly-linked LRU order over slab slots.
///
/// The *head* is most-recently used; the *tail* is the eviction candidate.
#[derive(Debug, Default)]
pub struct LruList {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl LruList {
    /// Empty list.
    pub fn new() -> Self {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of linked entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocate a slot and link it at the MRU position. Returns the slot id.
    pub fn push_front(&mut self) -> u32 {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.nodes.push(Node {
                    prev: NIL,
                    next: NIL,
                    in_list: false,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.link_front(id);
        id
    }

    fn link_front(&mut self, id: u32) {
        debug_assert!(!self.nodes[id as usize].in_list);
        let old_head = self.head;
        self.nodes[id as usize] = Node {
            prev: NIL,
            next: old_head,
            in_list: true,
        };
        if old_head != NIL {
            self.nodes[old_head as usize].prev = id;
        }
        self.head = id;
        if self.tail == NIL {
            self.tail = id;
        }
        self.len += 1;
    }

    fn unlink(&mut self, id: u32) {
        let node = self.nodes[id as usize];
        debug_assert!(node.in_list, "unlinking a slot not in the list");
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
        self.nodes[id as usize].in_list = false;
        self.len -= 1;
    }

    /// Move an entry to the MRU position.
    pub fn touch(&mut self, id: u32) {
        if self.head == id {
            return;
        }
        self.unlink(id);
        self.link_front(id);
    }

    /// Remove an entry and recycle its slot.
    pub fn remove(&mut self, id: u32) {
        self.unlink(id);
        self.free.push(id);
    }

    /// The LRU entry, if any (does not remove it).
    pub fn peek_lru(&self) -> Option<u32> {
        if self.tail == NIL {
            None
        } else {
            Some(self.tail)
        }
    }

    /// Iterate slots from MRU to LRU (for diagnostics/tests).
    pub fn iter_mru(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let id = cur;
                cur = self.nodes[cur as usize].next;
                Some(id)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_makes_mru() {
        let mut l = LruList::new();
        let a = l.push_front();
        let b = l.push_front();
        let c = l.push_front();
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![c, b, a]);
        assert_eq!(l.peek_lru(), Some(a));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l = LruList::new();
        let a = l.push_front();
        let b = l.push_front();
        let c = l.push_front();
        l.touch(a);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![a, c, b]);
        assert_eq!(l.peek_lru(), Some(b));
    }

    #[test]
    fn touch_head_is_noop() {
        let mut l = LruList::new();
        let _a = l.push_front();
        let b = l.push_front();
        l.touch(b);
        assert_eq!(l.iter_mru().next(), Some(b));
    }

    #[test]
    fn remove_recycles_slots() {
        let mut l = LruList::new();
        let a = l.push_front();
        let _b = l.push_front();
        l.remove(a);
        assert_eq!(l.len(), 1);
        let c = l.push_front();
        assert_eq!(c, a, "slot should be recycled");
    }

    #[test]
    fn remove_middle_keeps_links() {
        let mut l = LruList::new();
        let a = l.push_front();
        let b = l.push_front();
        let c = l.push_front();
        l.remove(b);
        assert_eq!(l.iter_mru().collect::<Vec<_>>(), vec![c, a]);
        assert_eq!(l.peek_lru(), Some(a));
    }

    #[test]
    fn remove_everything() {
        let mut l = LruList::new();
        let a = l.push_front();
        let b = l.push_front();
        l.remove(b);
        l.remove(a);
        assert!(l.is_empty());
        assert_eq!(l.peek_lru(), None);
    }

    #[test]
    fn interleaved_stress_is_consistent() {
        let mut l = LruList::new();
        let mut live: Vec<u32> = Vec::new();
        for round in 0..1000u32 {
            match round % 5 {
                0..=2 => live.push(l.push_front()),
                3 if !live.is_empty() => {
                    let id = live[(round as usize * 7) % live.len()];
                    l.touch(id);
                }
                4 if !live.is_empty() => {
                    let id = live.remove((round as usize * 13) % live.len());
                    l.remove(id);
                }
                _ => {}
            }
            assert_eq!(l.len(), live.len());
            let seen: Vec<u32> = l.iter_mru().collect();
            assert_eq!(seen.len(), live.len());
        }
    }
}
