//! Off-node completion matrix: every operation with an off-node branch,
//! under every completion kind it accepts, on two nodes of one rank each
//! (rank 0 reaches rank 1's memory only through the conduit). Every case
//! asserts that the value or the landed data arrives exactly once, that
//! the op injects one network message, that no operation completion is
//! eager, and that a remote-completion RPC runs on the target.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use upcr::{
    launch, operation_cx, remote_cx, source_cx, AmoOp, Completions, CxValue, GlobalPtr, Promise,
    RuntimeConfig, StatsSnapshot, Strided, Upcr,
};

/// `Src` is `source_cx::as_future() | operation_cx::as_future()`; `Rpc`
/// is `operation_cx::as_future() | remote_cx::as_rpc(..)`.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Fut,
    Prom,
    Lpc,
    Cb,
    Src,
    Rpc,
}
use Kind::*;

const OP: &[Kind] = &[Fut, Prom, Lpc, Cb];
const PUT: &[Kind] = &[Fut, Prom, Lpc, Cb, Src, Rpc];
const SHAPE: Strided = Strided {
    block_len: 2,
    stride: 4,
    blocks: 3,
};
/// Element indices of `arr` that `SHAPE` covers.
const STRIDED_IDX: [usize; 6] = [0, 1, 4, 5, 8, 9];

/// Rank 1's memory, the target of every case. Before each case `word`
/// holds the seed `s`, `res` holds 0 and `arr[i]` holds `1000 * s + i`.
#[derive(Clone, Copy)]
struct Fx {
    word: GlobalPtr<u64>,
    res: GlobalPtr<u64>,
    arr: GlobalPtr<u64>,
}

fn read(u: &Upcr, p: GlobalPtr<u64>) -> u64 {
    u.world().segment(p.rank()).read_u64(p.offset())
}

fn seed(u: &Upcr, fx: Fx, s: u64) {
    let seg = u.world().segment(fx.word.rank());
    seg.write_u64(fx.word.offset(), s);
    seg.write_u64(fx.res.offset(), 0);
    for i in 0..16 {
        seg.write_u64(fx.arr.add(i).offset(), 1000 * s + i as u64);
    }
}

trait Value: CxValue + PartialEq + std::fmt::Debug {
    fn promise() -> Promise<Self>;
}
macro_rules! value {
    ($($t:ty: $p:expr),*) => {$(impl Value for $t { fn promise() -> Promise<$t> { $p } })*};
}
value!((): Promise::new(), u64: Promise::with_value(), Vec<u64>: Promise::with_value());

/// One row of the matrix.
trait Op {
    type V: Value;
    const KINDS: &'static [Kind];
    fn issue<C: Completions<Self::V>>(u: &Upcr, fx: Fx, s: u64, cx: C) -> C::Out;
    /// The completion value for seed `s`.
    fn value(s: u64) -> Self::V;
    /// The target words the op leaves behind, as `(pointer, value)`.
    fn landed(fx: Fx, s: u64) -> Vec<(GlobalPtr<u64>, u64)>;
}

macro_rules! op {
    ($name:ident: $v:ty, $kinds:expr,
     |$u:ident, $fx:ident, $s:ident, $cx:ident| $issue:expr,
     value $value:expr, landed $landed:expr) => {
        struct $name;
        #[allow(unused_variables)]
        impl Op for $name {
            type V = $v;
            const KINDS: &'static [Kind] = $kinds;
            fn issue<C: Completions<$v>>($u: &Upcr, $fx: Fx, $s: u64, $cx: C) -> C::Out {
                $issue
            }
            fn value($s: u64) -> $v {
                $value
            }
            fn landed($fx: Fx, $s: u64) -> Vec<(GlobalPtr<u64>, u64)> {
                $landed
            }
        }
    };
}

op!(Rput: (), PUT, |u, fx, s, cx| u.rput_with(7 * s, fx.word, cx),
    value (), landed vec![(fx.word, 7 * s)]);
op!(RputSlice: (), PUT, |u, fx, s, cx| u.rput_slice_with(&[7 * s, 7 * s + 1], fx.arr, cx),
    value (), landed vec![(fx.arr, 7 * s), (fx.arr.add(1), 7 * s + 1)]);
op!(Copy: (), PUT, |u, fx, s, cx| u.copy_with(fx.arr, fx.arr.add(8), 2, cx),
    value (), landed vec![(fx.arr.add(8), 1000 * s), (fx.arr.add(9), 1000 * s + 1)]);
op!(RputStrided: (), PUT,
    |u, fx, s, cx| u.rput_strided_with(&(0..6).map(|j| 7 * s + j).collect::<Vec<_>>(), fx.arr, SHAPE, cx),
    value (), landed STRIDED_IDX.iter().zip(0..).map(|(&i, j)| (fx.arr.add(i), 7 * s + j)).collect());
op!(RputFragmented: (), &[Fut, Prom, Lpc, Cb, Src],
    |u, fx, s, cx| u.rput_fragmented_with(&[fx.word, fx.res], &[7 * s, 8 * s], cx),
    value (), landed vec![(fx.word, 7 * s), (fx.res, 8 * s)]);
op!(Add: (), OP, |u, fx, s, cx| u.atomic_domain::<u64>().add_with(fx.word, 5, cx),
    value (), landed vec![(fx.word, s + 5)]);
op!(FetchAddInto: (), OP,
    |u, fx, s, cx| u.atomic_domain::<u64>().fetch_add_into_with(fx.word, 5, fx.res, cx),
    value (), landed vec![(fx.word, s + 5), (fx.res, s)]);
op!(Rget: u64, OP, |u, fx, s, cx| u.rget_with(fx.word, cx),
    value s, landed vec![(fx.word, s)]);
op!(RgetVec: Vec<u64>, OP, |u, fx, s, cx| u.rget_vec_with(fx.arr, 3, cx),
    value (0..3).map(|i| 1000 * s + i).collect(), landed vec![]);
op!(RgetStrided: Vec<u64>, OP, |u, fx, s, cx| u.rget_strided_with(fx.arr, SHAPE, cx),
    value STRIDED_IDX.iter().map(|&i| 1000 * s + i as u64).collect(), landed vec![]);
op!(FetchAdd: u64, OP, |u, fx, s, cx| u.atomic_domain::<u64>().fetch_add_with(fx.word, 5, cx),
    value s, landed vec![(fx.word, s + 5)]);

/// The properties every case shares, given the stats delta of one op.
fn assert_one_offnode_op(d: &StatsSnapshot, eager: u64, case: &str) {
    assert_eq!(d.net_injected, 1, "{case}: one network injection");
    assert_eq!(d.eager_notifications, eager, "{case}: eager notifications");
}

/// Issue `O` from rank 0 under `kind` and check the matrix properties.
fn check<O: Op>(u: &Upcr, fx: Fx, s: u64, kind: Kind) {
    let case = format!("{} / {kind:?}", std::any::type_name::<O>());
    seed(u, fx, s);
    let before = u.stats();
    let got: Rc<RefCell<Vec<O::V>>> = Rc::default();
    let sent: Arc<Mutex<Vec<O::V>>> = Arc::default();
    let rpc_ranks: Arc<Mutex<Vec<usize>>> = Arc::default();
    let (g, sn, r) = (Rc::clone(&got), Arc::clone(&sent), Arc::clone(&rpc_ranks));
    let op = match kind {
        Fut => Some(O::issue(u, fx, s, operation_cx::as_future())),
        Prom => {
            let p = O::V::promise();
            O::issue(u, fx, s, operation_cx::as_promise(&p));
            Some(p.finalize())
        }
        Lpc => {
            let cx = operation_cx::as_lpc(move |v| g.borrow_mut().push(v));
            O::issue(u, fx, s, cx);
            None
        }
        Cb => {
            let cx = operation_cx::as_callback(move |v| sn.lock().unwrap().push(v));
            O::issue(u, fx, s, cx);
            None
        }
        Src => {
            let (src, op) = O::issue(u, fx, s, source_cx::as_future() | operation_cx::as_future());
            assert!(src.is_ready(), "{case}: source completion is synchronous");
            Some(op)
        }
        Rpc => {
            let rpc = remote_cx::as_rpc(move || r.lock().unwrap().push(upcr::api::rank_me()));
            Some(O::issue(u, fx, s, operation_cx::as_future() | rpc).0)
        }
    };
    if let Some(f) = op {
        got.borrow_mut().push(f.wait());
    }
    let rpcs = matches!(kind, Rpc) as usize;
    while got.borrow().len() + sent.lock().unwrap().len() == 0
        || rpc_ranks.lock().unwrap().len() < rpcs
    {
        u.progress();
    }
    // A duplicate delivery would surface within these quanta.
    for _ in 0..8 {
        u.progress();
    }
    let mut values = got.take();
    values.append(&mut sent.lock().unwrap());
    assert_eq!(values, vec![O::value(s)], "{case}: value arrives once");
    // Source completion is synchronous, hence eager; operation completion
    // of an off-node op never is.
    let eager = matches!(kind, Src) as u64;
    assert_one_offnode_op(&u.stats().since(&before), eager, &case);
    let on_target = rpc_ranks.lock().unwrap().clone();
    assert_eq!(on_target, vec![1; rpcs], "{case}: rpc runs on the target");
    for (p, v) in O::landed(fx, s) {
        assert_eq!(read(u, p), v, "{case}: landed data");
    }
}

fn row<O: Op>(u: &Upcr, fx: Fx, s: &mut u64) {
    for &kind in O::KINDS {
        *s += 1;
        if u.rank_me() == 0 {
            check::<O>(u, fx, *s, kind);
        }
        u.barrier();
    }
}

#[test]
fn every_offnode_op_completes_once_under_every_kind() {
    launch(RuntimeConfig::udp(2, 1).with_segment_size(1 << 16), |u| {
        let fx = Fx {
            word: u.broadcast(u.new_::<u64>(0), 1),
            res: u.broadcast(u.new_::<u64>(0), 1),
            arr: u.broadcast(u.new_array::<u64>(16), 1),
        };
        let mut s = 0;
        row::<Rput>(u, fx, &mut s);
        row::<RputSlice>(u, fx, &mut s);
        row::<Copy>(u, fx, &mut s);
        row::<RputStrided>(u, fx, &mut s);
        row::<RputFragmented>(u, fx, &mut s);
        row::<Add>(u, fx, &mut s);
        row::<FetchAddInto>(u, fx, &mut s);
        row::<Rget>(u, fx, &mut s);
        row::<RgetVec>(u, fx, &mut s);
        row::<RgetStrided>(u, fx, &mut s);
        row::<FetchAdd>(u, fx, &mut s);

        // The signal ops take a future completion only; the target
        // consumes the badge after the barrier.
        for (i, badge) in [0b01u64, 0b10].into_iter().enumerate() {
            s += 1;
            if u.rank_me() == 0 {
                seed(u, fx, s);
                let before = u.stats();
                let (name, want) = if i == 0 {
                    u.put_signal(7 * s, fx.word, 0, badge).wait();
                    ("put_signal", 7 * s)
                } else {
                    u.amo_signal(fx.word, AmoOp::Add, 5u64, 0, badge).wait();
                    ("amo_signal", s + 5)
                };
                assert_one_offnode_op(&u.stats().since(&before), 0, name);
                assert_eq!(read(u, fx.word), want, "{name}: landed data");
            }
            u.barrier();
            if u.rank_me() == 1 {
                assert_eq!(u.test_signal(0, u64::MAX), badge, "badge posted once");
            }
            u.barrier();
        }
    });
}
