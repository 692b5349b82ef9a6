//! The internal promise cell: shared state behind futures and promises.
//!
//! A cell is a rank-local (non-`Send`) state machine with a dependency
//! counter, an optional result value, and its readiness callbacks. It
//! becomes ready when the counter reaches zero; the value must have been
//! supplied by then. This mirrors UPC++'s internal promise object, whose
//! heap allocation on every asynchronous operation is precisely the cost
//! the paper's eager-notification work removes — so all cell allocation is
//! routed through [`new_cell`]/[`new_ready_cell`], which feed the
//! `cell_allocs` statistic the tests assert on.

use std::cell::RefCell;
use std::rc::Rc;

use crate::ctx::note_cell_alloc;

type Callback<T> = Box<dyn FnOnce(T)>;

/// A cell seen only as a dependency counter: what a deferred-queue entry
/// or a `when_all` edge needs of the cell it readies, whatever its value
/// type.
pub(crate) trait Discharge {
    /// Discharge one outstanding dependency (see [`Cell::fulfill`]).
    fn discharge(&self);
}

impl<T: Clone> Discharge for Cell<T> {
    fn discharge(&self) {
        self.fulfill(1);
    }
}

/// A pending cell's consumers, in registration order. A lone consumer is
/// stored inline: an operation's future or a `when_all` node usually has
/// exactly one, so it allocates no list. A consumer is a boxed callback on
/// the value or a dependency edge into another cell, which takes no box.
enum Callbacks<T> {
    Empty,
    One(Callback<T>),
    Dep(Rc<dyn Discharge>),
    /// Two or more consumers, each a `One` or a `Dep`.
    Many(Vec<Callbacks<T>>),
}

impl<T: Clone> Callbacks<T> {
    /// Append `next` (a `One` or a `Dep`) after the consumers already here.
    fn push(&mut self, next: Callbacks<T>) {
        *self = match std::mem::replace(self, Callbacks::Empty) {
            Callbacks::Empty => next,
            Callbacks::Many(mut all) => {
                all.push(next);
                Callbacks::Many(all)
            }
            first => Callbacks::Many(vec![first, next]),
        };
    }

    /// Run every consumer once, in registration order.
    fn run(self, v: T) {
        match self {
            Callbacks::Empty => {}
            Callbacks::One(cb) => cb(v),
            Callbacks::Dep(cell) => cell.discharge(),
            Callbacks::Many(mut all) => {
                // The last consumer takes the value by move.
                let last = all.pop().expect("a consumer list holds two or more");
                for c in all {
                    c.run(v.clone());
                }
                last.run(v);
            }
        }
    }
}

enum State<T> {
    Pending {
        deps: usize,
        value: Option<T>,
        cbs: Callbacks<T>,
    },
    Ready(T),
}

/// Shared future/promise state. Values must be `Clone` because a ready cell
/// can serve any number of consumers (multiple `then` callbacks, `result`
/// calls, conjoined parents).
pub(crate) struct Cell<T: Clone> {
    state: RefCell<State<T>>,
}

/// Allocate a pending cell with `deps` outstanding dependencies and no value.
pub(crate) fn new_cell<T: Clone + 'static>(deps: usize) -> Rc<Cell<T>> {
    note_cell_alloc();
    Rc::new(Cell {
        state: RefCell::new(State::Pending {
            deps,
            value: None,
            cbs: Callbacks::Empty,
        }),
    })
}

/// Allocate a pending cell that already holds its value (used for value-less
/// results, where "the value" is `()` and only dependencies gate readiness).
pub(crate) fn new_cell_with_value<T: Clone + 'static>(deps: usize, value: T) -> Rc<Cell<T>> {
    assert!(
        deps > 0,
        "a pre-valued cell with zero deps should be a ready cell"
    );
    note_cell_alloc();
    Rc::new(Cell {
        state: RefCell::new(State::Pending {
            deps,
            value: Some(value),
            cbs: Callbacks::Empty,
        }),
    })
}

/// Allocate an already-ready cell holding `value`.
pub(crate) fn new_ready_cell<T: Clone + 'static>(value: T) -> Rc<Cell<T>> {
    note_cell_alloc();
    Rc::new(Cell {
        state: RefCell::new(State::Ready(value)),
    })
}

/// The shared ready unit cell: allocated once per rank and reused for every
/// ready `Future<()>` when the running version has the elision optimization.
/// Constructed without touching statistics (it is the allocation that
/// *doesn't* happen).
pub(crate) fn shared_ready_unit_cell() -> Rc<Cell<()>> {
    Rc::new(Cell {
        state: RefCell::new(State::Ready(())),
    })
}

impl<T: Clone> Cell<T> {
    /// Whether the cell is ready.
    pub fn is_ready(&self) -> bool {
        matches!(*self.state.borrow(), State::Ready(_))
    }

    /// The result value; panics if not ready.
    pub fn get(&self) -> T {
        match &*self.state.borrow() {
            State::Ready(v) => v.clone(),
            State::Pending { .. } => panic!("future result requested before readiness"),
        }
    }

    /// Whether the cell holds its value (ready, or pending with a value).
    #[cfg(test)]
    pub fn has_value(&self) -> bool {
        match &*self.state.borrow() {
            State::Pending { value, .. } => value.is_some(),
            State::Ready(_) => true,
        }
    }

    /// Supply the result value. Panics if a value is already present.
    pub fn set_value(&self, v: T) {
        match &mut *self.state.borrow_mut() {
            State::Pending { value, .. } => {
                assert!(value.is_none(), "promise value fulfilled twice");
                *value = Some(v);
            }
            State::Ready(_) => panic!("promise value fulfilled after readiness"),
        }
    }

    /// Add `n` outstanding dependencies. Panics if already ready.
    pub fn add_deps(&self, n: usize) {
        match &mut *self.state.borrow_mut() {
            State::Pending { deps, .. } => *deps += n,
            State::Ready(_) => panic!("dependency added to an already-ready promise"),
        }
    }

    /// Current outstanding dependency count (0 if ready).
    pub fn deps(&self) -> usize {
        match &*self.state.borrow() {
            State::Pending { deps, .. } => *deps,
            State::Ready(_) => 0,
        }
    }

    /// Discharge `n` dependencies; on reaching zero the cell becomes ready
    /// and runs its callbacks (each with its own clone of the value).
    ///
    /// Callbacks run *after* the state flips to `Ready` and outside any
    /// internal borrow, so they may freely attach further callbacks, query
    /// readiness, or initiate new operations on this same cell's future.
    pub fn fulfill(&self, n: usize) {
        let run = {
            let mut st = self.state.borrow_mut();
            match &mut *st {
                State::Pending { deps, value, cbs } => {
                    assert!(*deps >= n, "promise fulfilled more times than required");
                    *deps -= n;
                    if *deps > 0 {
                        None
                    } else {
                        let v = value.take().expect(
                            "promise readied with no value (finalize before fulfill_result?)",
                        );
                        let cbs = std::mem::replace(cbs, Callbacks::Empty);
                        *st = State::Ready(v.clone());
                        Some((v, cbs))
                    }
                }
                State::Ready(_) => panic!("promise fulfilled after readiness"),
            }
        };
        if let Some((v, cbs)) = run {
            cbs.run(v);
        }
    }

    /// Register `f` to run with the value when the cell becomes ready; runs
    /// immediately (with a clone) if already ready.
    pub fn add_cb(&self, f: impl FnOnce(T) + 'static) {
        let v = match &mut *self.state.borrow_mut() {
            State::Pending { cbs, .. } => {
                cbs.push(Callbacks::One(Box::new(f)));
                return;
            }
            State::Ready(v) => v.clone(),
        };
        f(v);
    }

    /// Register an edge that discharges one dependency of `cell` when this
    /// cell becomes ready, or at once if it already is. Unlike
    /// [`add_cb`](Self::add_cb), it boxes nothing.
    pub fn add_dep(&self, cell: Rc<dyn Discharge>) {
        if let State::Pending { cbs, .. } = &mut *self.state.borrow_mut() {
            cbs.push(Callbacks::Dep(cell));
            return;
        }
        cell.discharge();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell as StdCell;

    #[test]
    fn ready_cell_is_immediately_consumable() {
        let c = new_ready_cell(42u64);
        assert!(c.is_ready());
        assert_eq!(c.get(), 42);
        let hit = Rc::new(StdCell::new(0u64));
        let h = Rc::clone(&hit);
        c.add_cb(move |v| h.set(v));
        assert_eq!(hit.get(), 42);
    }

    #[test]
    fn pending_cell_counts_down() {
        let c = new_cell_with_value(3, ());
        assert!(!c.is_ready());
        assert_eq!(c.deps(), 3);
        c.fulfill(1);
        c.fulfill(1);
        assert!(!c.is_ready());
        c.fulfill(1);
        assert!(c.is_ready());
    }

    #[test]
    fn callbacks_run_once_on_readiness_in_order() {
        let c = new_cell::<u32>(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let log = Rc::clone(&log);
            c.add_cb(move |v| log.borrow_mut().push((i, v)));
        }
        c.set_value(9);
        c.fulfill(1);
        assert_eq!(*log.borrow(), vec![(0, 9), (1, 9), (2, 9)]);
    }

    /// Register a consumer on `c` that logs `tag` when `c` readies: a boxed
    /// callback, or a dependency edge into a fresh one-dep cell whose own
    /// callback logs.
    fn consume(c: &Cell<u32>, log: &Rc<RefCell<Vec<String>>>, tag: String, edge: bool) {
        let log = Rc::clone(log);
        if edge {
            let target = new_cell_with_value(1, ());
            target.add_cb(move |()| log.borrow_mut().push(tag));
            c.add_dep(target);
        } else {
            c.add_cb(move |_| log.borrow_mut().push(tag));
        }
    }

    #[test]
    fn mixed_callbacks_and_edges_run_once_in_registration_order() {
        // `One`, `Dep`, and `Many` lists mixing both kinds.
        for edges in [
            &[true][..],
            &[false],
            &[true, false],
            &[false, true, true, false],
        ] {
            let c = new_cell::<u32>(1);
            let log = Rc::new(RefCell::new(Vec::new()));
            let tags: Vec<String> = edges
                .iter()
                .enumerate()
                .map(|(i, &edge)| format!("{}{i}", if edge { "edge" } else { "cb" }))
                .collect();
            for (tag, &edge) in tags.iter().zip(edges) {
                consume(&c, &log, tag.clone(), edge);
            }
            assert!(log.borrow().is_empty(), "nothing runs before readiness");
            c.set_value(4);
            c.fulfill(1);
            assert_eq!(*log.borrow(), tags, "{edges:?}");
            // An edge added to a ready cell discharges at once; nothing
            // registered earlier runs again.
            consume(&c, &log, "late".into(), true);
            let mut all = tags.clone();
            all.push("late".into());
            assert_eq!(*log.borrow(), all, "{edges:?}");
        }
    }

    #[test]
    fn callback_may_attach_callback() {
        let c = new_cell_with_value(1, ());
        let hit = Rc::new(StdCell::new(0));
        let c2 = Rc::clone(&c);
        let h = Rc::clone(&hit);
        c.add_cb(move |_| {
            let h2 = Rc::clone(&h);
            // Cell is ready by now; nested registration runs immediately.
            c2.add_cb(move |_| h2.set(h2.get() + 1));
        });
        c.fulfill(1);
        assert_eq!(hit.get(), 1);
    }

    #[test]
    #[should_panic(expected = "fulfilled more times")]
    fn overfulfill_panics() {
        let c = new_cell_with_value(1, ());
        c.fulfill(2);
    }

    #[test]
    #[should_panic(expected = "fulfilled twice")]
    fn double_value_panics() {
        let c = new_cell::<u32>(2);
        c.set_value(1);
        c.set_value(2);
    }

    #[test]
    #[should_panic(expected = "no value")]
    fn ready_without_value_panics() {
        let c = new_cell::<u32>(1);
        c.fulfill(1);
    }

    #[test]
    #[should_panic(expected = "before readiness")]
    fn get_before_ready_panics() {
        let c = new_cell_with_value(1, 5u32);
        c.get();
    }

    #[test]
    fn add_deps_extends_lifetime() {
        let c = new_cell_with_value(1, ());
        c.add_deps(2);
        c.fulfill(2);
        assert!(!c.is_ready());
        c.fulfill(1);
        assert!(c.is_ready());
    }
}
