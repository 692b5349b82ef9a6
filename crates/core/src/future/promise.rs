//! Promises: the producer side of asynchronous results.
//!
//! A promise is "essentially a counter" (paper, §II-A): any number of
//! value-less operations can be registered on one promise with
//! `require_anonymous`, each later discharged with `fulfill_anonymous`;
//! a single value-producing operation can deliver its result with
//! `fulfill_result`. `finalize` closes registration and yields the future.
//! Tracking N operations costs one heap allocation total, which is why the
//! paper's promise-based benchmark variants beat naive future conjoining
//! even before the eager-notification work.

use std::cell::Cell as StdCell;
use std::rc::Rc;

use super::cell::{new_cell, new_cell_with_value, Cell};
use super::future::Future;

/// The producer handle for an asynchronous result of type `T`.
///
/// Created with one outstanding dependency (discharged by
/// [`finalize`](Promise::finalize)), so the future cannot become ready
/// before registration is closed. Rank-local, like futures.
///
/// ```
/// use upcr::{launch, operation_cx, Promise, RuntimeConfig};
/// launch(RuntimeConfig::smp(2), |u| {
///     let arr = u.new_array::<u64>(10);
///     let pr = Promise::new();
///     for i in 0..10 {
///         u.rput_with(i as u64, arr.add(i), operation_cx::as_promise(&pr));
///     }
///     pr.finalize().wait(); // one allocation tracked all ten puts
///     u.barrier();
/// });
/// ```
pub struct Promise<T: Clone + 'static = ()> {
    pub(crate) cell: Rc<Cell<T>>,
    finalized: Rc<StdCell<bool>>,
}

impl<T: Clone + 'static> Clone for Promise<T> {
    fn clone(&self) -> Self {
        Promise {
            cell: Rc::clone(&self.cell),
            finalized: Rc::clone(&self.finalized),
        }
    }
}

impl Default for Promise<()> {
    fn default() -> Self {
        Self::new()
    }
}

impl Promise<()> {
    /// A new value-less promise with one (finalize) dependency.
    pub fn new() -> Self {
        Promise {
            cell: new_cell_with_value(1, ()),
            finalized: Rc::new(StdCell::new(false)),
        }
    }
}

impl<T: Clone + 'static> Promise<T> {
    /// A new value-carrying promise with one (finalize) dependency. The
    /// value must be supplied by [`fulfill_result`](Self::fulfill_result)
    /// before all dependencies are discharged.
    pub fn with_value() -> Self {
        Promise {
            cell: new_cell::<T>(1),
            finalized: Rc::new(StdCell::new(false)),
        }
    }

    /// Register `n` additional anonymous dependencies. Panics after
    /// finalization (UPC++ forbids registration on a finalized promise).
    pub fn require_anonymous(&self, n: usize) {
        assert!(
            !self.finalized.get(),
            "require_anonymous on a finalized promise"
        );
        self.cell.add_deps(n);
    }

    /// Discharge `n` anonymous dependencies.
    pub fn fulfill_anonymous(&self, n: usize) {
        self.cell.fulfill(n);
    }

    /// Supply the result value and discharge one dependency.
    pub fn fulfill_result(&self, v: T) {
        self.cell.set_value(v);
        self.cell.fulfill(1);
    }

    /// Supply the result value *without* discharging a dependency (used by
    /// the eager completion path, which elided its registration).
    pub(crate) fn set_value_only(&self, v: T) {
        self.cell.set_value(v);
    }

    /// Outstanding dependency count (diagnostic).
    pub fn deps(&self) -> usize {
        self.cell.deps()
    }

    /// The future tied to this promise (may be taken before finalization).
    pub fn get_future(&self) -> Future<T> {
        Future::from_cell(Rc::clone(&self.cell))
    }

    /// Close registration, discharging the construction dependency, and
    /// return the future. Panics on a second call.
    pub fn finalize(&self) -> Future<T> {
        assert!(!self.finalized.get(), "promise finalized twice");
        self.finalized.set(true);
        self.cell.fulfill(1);
        self.get_future()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_promise_counts_operations() {
        let p = Promise::new();
        p.require_anonymous(3);
        let f = p.finalize();
        assert!(!f.is_ready());
        p.fulfill_anonymous(1);
        p.fulfill_anonymous(2);
        assert!(f.is_ready());
    }

    #[test]
    fn finalize_alone_makes_ready() {
        let p = Promise::new();
        let f = p.finalize();
        assert!(f.is_ready());
    }

    #[test]
    fn valued_promise_direct_producer_pattern() {
        // UPC++ pattern 1: a fresh promise's construction dependency is
        // consumed by fulfill_result — no finalize involved.
        let p = Promise::<u64>::with_value();
        let f = p.get_future();
        assert!(!f.is_ready());
        p.fulfill_result(99);
        assert!(f.is_ready());
        assert_eq!(f.result(), 99);
    }

    #[test]
    fn valued_promise_operation_registration_pattern() {
        // UPC++ pattern 2: an operation registers (+1) and fulfills (-1);
        // the user's finalize consumes the construction dependency.
        let p = Promise::<u64>::with_value();
        p.require_anonymous(1); // the operation registers itself
        let f = p.finalize();
        assert!(!f.is_ready());
        p.fulfill_result(42); // the operation completes
        assert!(f.is_ready());
        assert_eq!(f.result(), 42);
    }

    #[test]
    fn fulfill_before_finalize_order_independent() {
        let p = Promise::new();
        p.require_anonymous(2);
        p.fulfill_anonymous(2);
        let f = p.finalize();
        assert!(f.is_ready());
    }

    #[test]
    #[should_panic(expected = "finalized twice")]
    fn double_finalize_panics() {
        let p = Promise::new();
        p.finalize();
        p.finalize();
    }

    #[test]
    #[should_panic(expected = "on a finalized promise")]
    fn require_after_finalize_panics() {
        let p = Promise::new();
        p.require_anonymous(1);
        p.finalize();
        p.require_anonymous(1);
    }

    #[test]
    #[should_panic(expected = "more times than required")]
    fn overfulfill_panics() {
        let p = Promise::new();
        p.require_anonymous(1);
        p.fulfill_anonymous(3);
    }

    #[test]
    fn clones_share_state() {
        let p = Promise::new();
        let q = p.clone();
        q.require_anonymous(1);
        let f = p.finalize();
        assert!(!f.is_ready());
        p.fulfill_anonymous(1);
        assert!(f.is_ready());
    }
}
