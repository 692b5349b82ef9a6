//! Future conjoining (`when_all`) with the paper's ready-input optimization.
//!
//! §III-C: if all inputs but (at most) one are ready and value-less, the
//! conjoined result is semantically equivalent to that one input, so
//! `when_all` can return a copy of it instead of building a
//! dependency-graph node. This turns the GUPS loop idiom
//! `f = when_all(f, rput(...))` from an O(N)-allocation graph construction
//! into zero allocations when the operations complete eagerly.
//!
//! The fast paths are gated on the running library version
//! ([`LibVersion::has_when_all_opt`](crate::LibVersion::has_when_all_opt)):
//! under 2021.3.0 semantics every call builds a graph node, as that release
//! did.

use std::cell::RefCell;
use std::rc::Rc;

use super::cell::{new_cell, new_cell_with_value};
use super::future::Future;
use crate::ctx::{note_when_all_fast, note_when_all_node, when_all_opt_enabled};
use crate::trace::{CompletionPath, OpKind};

/// Conjoin two value-less futures: the result is ready when both are.
///
/// This is the paper's `when_all(f, rput(...))` accumulation idiom. With the
/// optimization enabled, a ready input is simply dropped and the other input
/// returned — no allocation, no graph node.
/// ```
/// upcr::launch(upcr::RuntimeConfig::smp(2), |u| {
///     let p = u.new_array::<u64>(8);
///     let mut f = upcr::make_future();
///     for i in 0..8 {
///         f = upcr::conjoin(f, u.rput(i as u64, p.add(i)));
///     }
///     f.wait(); // all eight puts complete
///     u.barrier();
/// });
/// ```
pub fn conjoin(a: Future<()>, b: Future<()>) -> Future<()> {
    if when_all_opt_enabled() {
        if a.is_ready() {
            note_when_all_fast();
            // Ready-input elision resolves the conjunction at initiation:
            // an eager-path span with zero latency.
            let top = crate::ctx::trace_op_init(OpKind::WhenAll, true);
            crate::ctx::trace_notify(top, CompletionPath::Eager);
            return b;
        }
        if b.is_ready() {
            note_when_all_fast();
            let top = crate::ctx::trace_op_init(OpKind::WhenAll, true);
            crate::ctx::trace_notify(top, CompletionPath::Eager);
            return a;
        }
    }
    note_when_all_node();
    let top = crate::ctx::trace_op_init(OpKind::WhenAll, true);
    // Each input discharges one of the node's two dependencies through an
    // edge: the node is the only allocation.
    let cell = new_cell_with_value(2, ());
    a.cell.add_dep(Rc::clone(&cell) as _);
    b.cell.add_dep(Rc::clone(&cell) as _);
    let f = Future::from_cell(cell);
    if !top.is_none() {
        // Graph-node conjunctions resolve from the progress engine; the
        // callback is only attached while tracing so the disabled path
        // stays allocation-free.
        f.on_ready(move |_| crate::ctx::trace_notify(top, CompletionPath::Deferred));
    }
    f
}

/// Conjoin a value-carrying future with a value-less one; the result carries
/// the value. With the optimization, a ready value-less input contributes
/// nothing and the valued future is returned as-is (`when_all(fut1, fut2,
/// fut3)` returning "a copy of `fut1`" in the paper's example).
pub fn when_all_value<T: Clone + 'static>(v: Future<T>, u: Future<()>) -> Future<T> {
    if when_all_opt_enabled() && u.is_ready() {
        note_when_all_fast();
        return v;
    }
    note_when_all_node();
    let cell = new_cell::<T>(2);
    let c1 = Rc::clone(&cell);
    v.on_ready(move |val| {
        c1.set_value(val);
        c1.fulfill(1);
    });
    u.cell.add_dep(Rc::clone(&cell) as _);
    Future::from_cell(cell)
}

/// Conjoin `n` value-less futures.
pub fn conjoin_all(futs: impl IntoIterator<Item = Future<()>>) -> Future<()> {
    let mut acc = Future::ready_unit();
    for f in futs {
        acc = conjoin(acc, f);
    }
    acc
}

/// General two-value join: ready when both inputs are, carrying both values.
///
/// UPC++ `when_all` flattens variadic value lists at the type level via
/// template metaprogramming; the Rust adaptation produces tuples (see
/// DESIGN.md). No ready-input elision applies when *both* inputs carry
/// values — the combined value must live in a fresh cell.
pub fn join2<A, B>(a: Future<A>, b: Future<B>) -> Future<(A, B)>
where
    A: Clone + 'static,
    B: Clone + 'static,
{
    if a.is_ready() && b.is_ready() {
        // Both values available: build the ready result directly (one
        // allocation, no callbacks). Valid in all versions — 2021.3.0 also
        // allocated exactly one cell for a ready conjunction of ready
        // futures.
        return Future::ready((a.result(), b.result()));
    }
    note_when_all_node();
    let cell = new_cell::<(A, B)>(2);
    let partial: Rc<RefCell<(Option<A>, Option<B>)>> = Rc::new(RefCell::new((None, None)));
    let finish = |cell: &Rc<super::cell::Cell<(A, B)>>,
                  partial: &Rc<RefCell<(Option<A>, Option<B>)>>| {
        let mut p = partial.borrow_mut();
        if p.0.is_some() && p.1.is_some() {
            let x = p.0.take().unwrap();
            let y = p.1.take().unwrap();
            drop(p);
            cell.set_value((x, y));
            cell.fulfill(2);
        }
    };
    {
        let cell = Rc::clone(&cell);
        let partial = Rc::clone(&partial);
        a.on_ready(move |va| {
            partial.borrow_mut().0 = Some(va);
            finish(&cell, &partial);
        });
    }
    {
        let cell = Rc::clone(&cell);
        let partial = Rc::clone(&partial);
        b.on_ready(move |vb| {
            partial.borrow_mut().1 = Some(vb);
            finish(&cell, &partial);
        });
    }
    Future::from_cell(cell)
}

/// Three-value join (via nested [`join2`]).
pub fn join3<A, B, C>(a: Future<A>, b: Future<B>, c: Future<C>) -> Future<(A, B, C)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
{
    join2(join2(a, b), c).then(|((a, b), c)| (a, b, c))
}

/// Four-value join.
pub fn join4<A, B, C, D>(
    a: Future<A>,
    b: Future<B>,
    c: Future<C>,
    d: Future<D>,
) -> Future<(A, B, C, D)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
    D: Clone + 'static,
{
    join2(join2(a, b), join2(c, d)).then(|((a, b), (c, d))| (a, b, c, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::cell::new_cell_with_value;

    fn pending_unit() -> (Future<()>, Rc<super::super::cell::Cell<()>>) {
        let c = new_cell_with_value(1, ());
        (Future::from_cell(Rc::clone(&c)), c)
    }

    #[test]
    fn conjoin_two_ready() {
        // Outside a runtime the optimization default is enabled.
        let f = conjoin(Future::ready_unit(), Future::ready_unit());
        assert!(f.is_ready());
    }

    #[test]
    fn conjoin_waits_for_both() {
        let (a, ca) = pending_unit();
        let (b, cb) = pending_unit();
        let f = conjoin(a, b);
        assert!(!f.is_ready());
        ca.fulfill(1);
        assert!(!f.is_ready());
        cb.fulfill(1);
        assert!(f.is_ready());
    }

    #[test]
    fn conjoin_ready_with_pending_returns_pending_side() {
        let (a, ca) = pending_unit();
        let f = conjoin(Future::ready_unit(), a);
        assert!(!f.is_ready());
        ca.fulfill(1);
        assert!(f.is_ready());
    }

    #[test]
    fn when_all_value_elides_ready_unit() {
        let v = Future::ready(5u32);
        let f = when_all_value(v, Future::ready_unit());
        assert!(f.is_ready());
        assert_eq!(f.result(), 5);
    }

    #[test]
    fn when_all_value_waits_for_unit() {
        let (u, cu) = pending_unit();
        let f = when_all_value(Future::ready(5u32), u);
        assert!(!f.is_ready());
        cu.fulfill(1);
        assert_eq!(f.result(), 5);
    }

    #[test]
    fn when_all_value_pending_unit_side_readies_through_its_edge() {
        // Both inputs pending; the unit side's edge readies the node, in
        // either fulfillment order.
        for unit_last in [true, false] {
            let vc = new_cell::<u32>(1);
            let (u, cu) = pending_unit();
            let f = when_all_value(Future::from_cell(Rc::clone(&vc)), u);
            let fulfill_value = || {
                vc.set_value(6);
                vc.fulfill(1);
            };
            if unit_last {
                fulfill_value();
                assert!(!f.is_ready());
                cu.fulfill(1);
            } else {
                cu.fulfill(1);
                assert!(!f.is_ready());
                fulfill_value();
            }
            assert_eq!(f.result(), 6, "unit_last {unit_last}");
        }
    }

    #[test]
    fn when_all_value_waits_for_value() {
        let vc = new_cell::<u32>(1);
        let f = when_all_value(Future::from_cell(Rc::clone(&vc)), Future::ready_unit());
        // Unit side elided, so `f` IS the valued future.
        assert!(!f.is_ready());
        vc.set_value(8);
        vc.fulfill(1);
        assert_eq!(f.result(), 8);
    }

    #[test]
    fn conjoin_all_over_iterator() {
        let (a, ca) = pending_unit();
        let f = conjoin_all([Future::ready_unit(), a, Future::ready_unit()]);
        assert!(!f.is_ready());
        ca.fulfill(1);
        assert!(f.is_ready());
    }

    #[test]
    fn join2_combines_values_any_order() {
        // b first, then a.
        let ac = new_cell::<u32>(1);
        let bc = new_cell::<&'static str>(1);
        let f = join2(
            Future::from_cell(Rc::clone(&ac)),
            Future::from_cell(Rc::clone(&bc)),
        );
        bc.set_value("hi");
        bc.fulfill(1);
        assert!(!f.is_ready());
        ac.set_value(3);
        ac.fulfill(1);
        assert_eq!(f.result(), (3, "hi"));
    }

    #[test]
    fn join2_ready_inputs() {
        let f = join2(Future::ready(1u8), Future::ready(2u8));
        assert_eq!(f.result(), (1, 2));
    }

    #[test]
    fn join3_and_join4() {
        let f = join3(
            Future::ready(1u8),
            Future::ready("x"),
            Future::ready(2.5f64),
        );
        assert_eq!(f.result(), (1, "x", 2.5));
        let g = join4(
            Future::ready(1u8),
            Future::ready(2u8),
            Future::ready(3u8),
            Future::ready(4u8),
        );
        assert_eq!(g.result(), (1, 2, 3, 4));
    }

    #[test]
    fn gups_accumulation_idiom() {
        // f = when_all(f, op()) in a loop, mixed ready/pending operations.
        let mut f = crate::future::future::make_future();
        let mut cells = Vec::new();
        for i in 0..10 {
            let op = if i % 2 == 0 {
                Future::ready_unit()
            } else {
                let (fut, cell) = pending_unit();
                cells.push(cell);
                fut
            };
            f = conjoin(f, op);
        }
        assert!(!f.is_ready());
        for c in &cells {
            c.fulfill(1);
        }
        assert!(f.is_ready());
    }
}
