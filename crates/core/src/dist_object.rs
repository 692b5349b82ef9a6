//! Distributed objects: the `upcxx::dist_object<T>` directory.
//!
//! A `dist_object` is a collectively-constructed handle binding one value
//! per rank under a common identifier; `fetch(rank)` retrieves another
//! rank's value asynchronously. It is the standard UPC++ bootstrapping
//! idiom — exchanging global pointers, sizes, and configuration — replacing
//! ad-hoc broadcast patterns.
//!
//! Construction is collective and assigns ids deterministically (one shared
//! counter per world, in creation order per rank), so all ranks' `i`-th
//! `dist_object` refer to the same directory entry — the same scheme UPC++
//! uses. `fetch` is an RPC to the owner and therefore always completes
//! asynchronously, like any RPC.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use gasnex::Rank;

use crate::completion::CxValue;
use crate::future::Future;
use crate::runtime::Upcr;

thread_local! {
    /// Per-rank registry: dist-object id -> the local value (type-erased).
    static REGISTRY: RefCell<HashMap<u64, Rc<dyn Any>>> = RefCell::new(HashMap::new());
    /// Ids assigned in collective creation order.
    static NEXT_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Reset per-thread dist-object state (called at rank teardown).
pub(crate) fn reset_registry() {
    REGISTRY.with(|r| r.borrow_mut().clear());
    NEXT_ID.with(|n| n.set(0));
}

/// A handle to one value per rank, fetchable across ranks.
///
/// `T` must be [`CxValue`] so fetched copies can ride completion
/// notifications. The handle is rank-local (not `Send`), like every other
/// runtime object.
///
/// ```
/// use upcr::{launch, DistObject, Rank, RuntimeConfig};
/// launch(RuntimeConfig::smp(3), |u| {
///     let d = DistObject::new(u, 10 * u.rank_me() as u64);
///     u.barrier();
///     assert_eq!(d.fetch(u, Rank(2)).wait(), 20);
///     u.barrier();
/// });
/// ```
pub struct DistObject<T: CxValue> {
    id: u64,
    local: Rc<T>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<T: CxValue> DistObject<T> {
    /// Collective constructor: every rank must call this the same number of
    /// times in the same order (the UPC++ requirement), each contributing
    /// its local value.
    pub fn new(u: &Upcr, value: T) -> Self {
        let id = NEXT_ID.with(|n| {
            let id = n.get();
            n.set(id + 1);
            id
        });
        let local = Rc::new(value);
        REGISTRY.with(|r| {
            let prev = r.borrow_mut().insert(id, Rc::clone(&local) as Rc<dyn Any>);
            assert!(prev.is_none(), "dist_object id {id} registered twice");
        });
        let _ = u; // collective by convention; id assignment is local
        DistObject {
            id,
            local,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The identifier shared by all ranks' instances of this object.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This rank's value.
    pub fn local(&self) -> &T {
        &self.local
    }

    /// Fetch `rank`'s value. Always asynchronous (an RPC to the owner),
    /// even for `rank == rank_me()` — matching UPC++, where `fetch`
    /// returns a future that is never ready synchronously.
    pub fn fetch(&self, u: &Upcr, rank: Rank) -> Future<T> {
        let id = self.id;
        u.rpc(rank, move || {
            REGISTRY.with(|r| {
                let reg = r.borrow();
                let any = reg
                    .get(&id)
                    .unwrap_or_else(|| panic!("dist_object {id} not yet constructed on this rank"));
                any.downcast_ref::<T>()
                    .unwrap_or_else(|| panic!("dist_object {id} type mismatch"))
                    .clone()
            })
        })
    }
}

impl<T: CxValue> Drop for DistObject<T> {
    fn drop(&mut self) {
        // Leave the registry entry in place: in-flight fetches from other
        // ranks may still arrive (UPC++ requires the object to outlive
        // fetches; we degrade gracefully instead). Entries are cleared at
        // rank teardown.
    }
}
