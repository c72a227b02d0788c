"""The columnar trace block against its ``DynInst`` object oracle.

A trace's primary form is the :class:`~repro.isa.trace.TraceBlock` the
executor writes; every bulk reader derives its arrays from it with
whole-array numpy.  These tests pin that the derivations equal the
per-object loops they replaced, kept here as the oracle:

- the executor-written block equals the block the one ``DynInst``-list
  conversion (:func:`~repro.isa.trace.block_from_insts`) derives from
  the materialized objects, for every golden-trace case;
- the simulator's columns, the graph builder's ``InstColumns``,
  ``Trace.stats()`` and ``pc_histogram()`` equal the old object loops;
- ad hoc traces keep their cache keys (hashed from the columns now);
- the lazy ``insts`` view bills ``workload.insts_materialized`` and the
  default ``breakdown`` builds no ``DynInst`` at all.
"""

import pickle
from typing import Dict, List

import pytest

np = pytest.importorskip("numpy")

from repro import cli, obs
from repro.analysis.adaptive import slice_trace
from repro.isa import Executor, ProgramBuilder
from repro.isa.instructions import DynInst, OpClass, Opcode, StaticInst
from repro.isa.trace import (
    BLOCK_COLUMNS,
    InstColumns,
    InstView,
    Trace,
    TraceStats,
    block_from_insts,
)
from repro.pipeline import sim_key, trace_fingerprint
from repro.pipeline.artifacts import graph_key
from repro.session import AnalysisSession
from repro.uarch import MachineConfig, fastcore
from repro.uarch.config import OPCLASS_TO_FU, FUKind
from repro.workloads import registry
from repro.workloads.spec import make_gzip
from repro.workloads.synthetic import fuzz_program, random_program

from tests.test_trace_golden import CASES



# ----------------------------------------------------------------------
# the object loops the columns replaced (the oracle)
# ----------------------------------------------------------------------

def oracle_sim_columns(trace) -> Dict[str, "np.ndarray"]:
    """The simulator columns, decoded one ``DynInst`` at a time."""
    fl_load, fl_store, fl_branch, fl_taken, fl_prefetch, fl_mem = (
        1, 2, 4, 8, 16, 32)
    opclass_idx = {c: i for i, c in enumerate(OpClass)}
    fu_idx = {FUKind.IALU: 0, FUKind.IMUL: 1, FUKind.FALU: 2,
              FUKind.FMUL: 3, FUKind.MEM: 4}
    kind = {Opcode.BEQ: 0, Opcode.BNE: 0, Opcode.BLT: 0, Opcode.BGE: 0,
            Opcode.J: 1, Opcode.CALL: 2, Opcode.RET: 3, Opcode.JR: 4}
    out: Dict[str, List[int]] = {name: [] for name in (
        "pc", "flags", "opclass", "fukind", "maddr", "dep_prod",
        "dep_flag", "branch_idx", "branch_pc", "branch_kind",
        "branch_taken", "branch_next")}
    dep_start = [0]
    for i, inst in enumerate(trace.insts):
        cls = inst.opclass
        out["pc"].append(inst.pc)
        out["opclass"].append(opclass_idx[cls])
        out["fukind"].append(fu_idx[OPCLASS_TO_FU[cls]])
        fl = 0
        if cls is OpClass.LOAD:
            fl |= fl_load
        if cls is OpClass.STORE:
            fl |= fl_store
        if cls is OpClass.BRANCH:
            fl |= fl_branch
            out["branch_idx"].append(i)
            out["branch_pc"].append(inst.pc)
            out["branch_kind"].append(kind[inst.opcode])
            out["branch_taken"].append(int(inst.taken))
            out["branch_next"].append(inst.next_pc)
        if inst.taken:
            fl |= fl_taken
        if inst.opcode is Opcode.PREFETCH:
            fl |= fl_prefetch
        out["maddr"].append(inst.mem_addr if cls.is_mem else 0)
        if cls.is_mem:
            fl |= fl_mem
        out["flags"].append(fl)
        deps: Dict[int, int] = {}
        for j in inst.src_producers:
            if j >= 0:
                deps[j] = 1
        if cls is OpClass.LOAD and inst.mem_producer >= 0:
            deps.setdefault(inst.mem_producer, 0)
        for j, is_src in deps.items():
            out["dep_prod"].append(j)
            out["dep_flag"].append(is_src)
        dep_start.append(len(out["dep_prod"]))
    nb = len(out["branch_idx"])
    cols = {name: np.asarray(vals or [0], dtype=np.int64)
            for name, vals in out.items()}
    cols["branch_idx"] = cols["branch_idx"][:nb]
    cols["dep_start"] = np.asarray(dep_start, dtype=np.int64)
    return cols


def oracle_inst_columns(insts) -> Dict[str, "np.ndarray"]:
    """The graph builder's block, decoded one ``DynInst`` at a time."""
    n = len(insts)
    opgroup = np.empty(n, dtype=np.int64)
    taken_br = np.zeros(n, dtype=np.bool_)
    mem_extra = np.full(n, -1, dtype=np.int64)
    pr_start = [0]
    prods: List[int] = []
    for i, inst in enumerate(insts):
        cls = inst.opclass
        group = (0 if cls.is_mem else 1 if cls.is_short_alu else
                 2 if cls.is_long_alu else 3)
        opgroup[i] = group
        taken_br[i] = group == 3 and bool(inst.taken)
        seen = set()
        for j in inst.src_producers:
            if j >= 0 and j not in seen:
                seen.add(j)
                prods.append(j)
        pr_start.append(len(prods))
        mem = inst.mem_producer
        if inst.is_load and mem >= 0 and mem not in seen:
            mem_extra[i] = mem
    return {"opgroup": opgroup, "taken_br": taken_br,
            "pr_start": np.asarray(pr_start, dtype=np.int64),
            "pr_prod": np.asarray(prods, dtype=np.int64),
            "mem_extra": mem_extra}


def oracle_stats(insts) -> TraceStats:
    loads = stores = branches = taken = short_alu = long_alu = 0
    for inst in insts:
        cls = inst.opclass
        if cls is OpClass.LOAD:
            loads += 1
        elif cls is OpClass.STORE:
            stores += 1
        elif cls is OpClass.BRANCH:
            branches += 1
            if inst.taken:
                taken += 1
        elif cls.is_short_alu:
            short_alu += 1
        elif cls.is_long_alu:
            long_alu += 1
    return TraceStats(len(insts), loads, stores, branches, taken,
                      short_alu, long_alu)


def oracle_pc_histogram(insts) -> Dict[int, int]:
    hist: Dict[int, int] = {}
    for inst in insts:
        hist[inst.pc] = hist.get(inst.pc, 0) + 1
    return hist


def assert_same_arrays(got, want, names):
    for name in names:
        a, b = getattr(got, name) if not isinstance(got, dict) \
            else got[name], want[name]
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


# ----------------------------------------------------------------------
# differential: every golden-trace case
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", sorted(CASES))
def test_columns_equal_the_object_oracle(case):
    trace = CASES[case]().trace()
    objects = list(trace.insts)
    rebuilt = block_from_insts(trace.program, objects)
    for name in BLOCK_COLUMNS:
        got, want = getattr(trace.block, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name

    cols = fastcore._Columns(trace)
    want = oracle_sim_columns(trace)
    assert_same_arrays(cols, want, want)
    for name in want:  # the C kernel reads raw int64 pointers
        assert getattr(cols, name).flags["C_CONTIGUOUS"], name
    assert cols.num_branches == len(want["branch_idx"])

    icols = InstColumns(trace.block)
    assert icols.n == len(objects)
    assert_same_arrays(icols, oracle_inst_columns(objects),
                       InstColumns.__slots__[1:])

    assert trace.stats() == oracle_stats(objects)
    hist = trace.pc_histogram()
    want_hist = oracle_pc_histogram(objects)
    assert list(hist.items()) == list(want_hist.items())  # order too


# ----------------------------------------------------------------------
# the DynInst-list conversion and the lazy view
# ----------------------------------------------------------------------

def _loop_program():
    b = ProgramBuilder("columns")
    b.addi(1, 0, 3)
    b.label("top")
    b.ld(2, 1, 0x2000)
    b.st(2, 1, 0x2008)
    b.add(3, 2, 2)  # one producer, read twice: deduplicated once
    b.addi(1, 1, -1)
    b.bne(1, 0, "top")
    b.halt()
    return b.build()


class TestConversion:
    def test_hand_built_trace_keeps_its_objects(self):
        trace = Executor(_loop_program()).run()
        objects = list(trace.insts)
        hand = Trace(trace.program, objects)
        assert hand.insts[3] is objects[3]
        for name in BLOCK_COLUMNS:
            assert np.array_equal(getattr(hand.block, name),
                                  getattr(trace.block, name))

    def test_another_traces_view_shares_its_block(self):
        trace = Executor(_loop_program()).run()
        assert Trace(trace.program, trace.insts).block is trace.block

    @pytest.mark.parametrize("damage", ["seq", "producers", "static"])
    def test_inconsistent_objects_are_rejected(self, damage):
        trace = Executor(_loop_program()).run()
        objects = list(trace.insts)
        dyn = objects[2]
        if damage == "seq":
            dyn.seq = 7
        elif damage == "producers":
            dyn.src_producers = dyn.src_producers + (0,)
        else:  # a static instruction outside the program
            dyn.static = StaticInst(pc=dyn.static.pc + 0x1000,
                                    opcode=dyn.static.opcode,
                                    srcs=dyn.static.srcs)
        with pytest.raises(ValueError):
            Trace(trace.program, objects)

    def test_empty_trace(self):
        trace = Trace(_loop_program(), [])
        assert len(trace) == 0 and list(trace.insts) == []
        assert trace.stats().total == 0 and trace.pc_histogram() == {}
        assert InstColumns(trace.block).n == 0

    def test_slice_reindexes_like_the_object_loop(self):
        trace = random_program(seed=2).trace()
        start, end = 37, 160
        part = slice_trace(trace, start, end - start)
        for i, inst in enumerate(part.insts):
            orig = trace.insts[start + i]
            assert inst.seq == i and inst.static is orig.static
            assert inst.src_producers == tuple(
                p - start if p >= start else -1
                for p in orig.src_producers)
            assert inst.mem_producer == (orig.mem_producer - start
                                         if orig.mem_producer >= start
                                         else -1)

    def test_pickle_ships_the_block_not_objects(self):
        trace = Executor(_loop_program()).run()
        list(trace.insts)  # memoize the objects
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.block._objects is None
        assert list(copy.insts) == list(trace.insts)


class TestMaterializationCounter:
    @pytest.fixture()
    def trace(self):
        return Executor(_loop_program()).run()

    def _billed(self, fn):
        collector = obs.enable()
        try:
            fn()
        finally:
            obs.disable()
        return collector.counter("workload.insts_materialized")

    def test_len_and_slicing_bill_nothing(self, trace):
        def touch():
            view = trace.insts[2:9]
            assert isinstance(view, InstView) and len(view) == 7
            assert len(trace.insts) == len(trace)
        assert self._billed(touch) == 0

    def test_indexing_bills_one(self, trace):
        assert self._billed(lambda: trace.insts[4]) == 1

    def test_iteration_bills_n_once(self, trace):
        def walk():
            list(trace.insts)
            list(trace.insts[3:6])  # served from the memoized list
            trace.insts[5]
        assert self._billed(walk) == len(trace)


# ----------------------------------------------------------------------
# ad hoc traces keep their content keys
# ----------------------------------------------------------------------

def _hand_trace():
    b = ProgramBuilder("keys")
    b.addi(1, 0, 3)
    b.label("top")
    b.ld(2, 1, 0x2000)
    b.st(2, 1, 0x2008)
    b.mul(3, 2, 2)
    b.addi(1, 1, -1)
    b.bne(1, 0, "top")
    b.halt()
    return Executor(b.build()).run()


#: ``(trace_fingerprint, sim_key, graph_key)`` at the default machine,
#: recorded with the per-instruction row loop that hashed ``trace.insts``
#: before the fingerprint read columns; artifacts cached under them must
#: keep hitting
KEY_ORACLE = {
    "random_program/s3": (
        "252f550682a5b57fae53ea6e3db236838b228e09071be638a39041d648609c69",
        "07fbd3bbae99a3445abd9cc66b201cdeafaeef8397d22db3b55982757fab9d74",
        "2c60675a6356c9bf9454ea5cfdf54c28aab685be0eec2eff5962c347e658c2be"),
    "fuzz_program/s2": (
        "da611d2e9d1c98d6cecb91c489be442593a40ea3a10db9f0c4f2a051166ef77f",
        "8d27f4c8d9e5d81cd98bb04704d89214ed6409c7a06a70e2dfa93874487bd3f9",
        "9a8b4a622458b60aa5af0f4228ec1f2b7d866fb9289e9b24c2881108de51cac7"),
    "gzip_unregistered": (
        "01c484a1a4577ffad6e175a37d079e378b1b89314b6c22f127fb87ef8016d7f7",
        "640e6d9dea578b9f32744451016b351ebc69c01c467edfe76ffc3bac655e3b29",
        "e96991357a846c8d9ce8ecf0bb367747629197d899404c2d1934f4657c2ac39c"),
    "hand_built": (
        "1c587b6a3b911f11fd8ed8b8b0fc39a06069e820decf6ef79d0aa1e8538db95f",
        "012388374ecd59d9d82345a01539f53ed2b2cd48f90a771e292a51c6b582b35d",
        "8555be99667429160a254fa8af957d2e9b219f212fc66b948d56087a36392c85"),
}

KEY_CASES = {
    "random_program/s3": lambda: random_program(seed=3).trace(),
    "fuzz_program/s2": lambda: fuzz_program(seed=2).trace(),
    "gzip_unregistered": lambda: make_gzip(scale=0.5, seed=0).trace(),
    "hand_built": _hand_trace,
}


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_ad_hoc_keys_are_unchanged(case):
    trace = AnalysisSession.for_trace(KEY_CASES[case]()).trace
    assert trace.identity is None
    config = MachineConfig()
    assert (trace_fingerprint(trace), sim_key(trace, config),
            graph_key(trace, config)) == KEY_ORACLE[case]
    # a hand-built copy of the same objects hashes the same
    copy = Trace(trace.program, list(trace.insts), trace.warm_l1_ranges,
                 trace.warm_l2_ranges)
    assert trace_fingerprint(copy) == KEY_ORACLE[case][0]


# ----------------------------------------------------------------------
# the default breakdown builds no DynInst
# ----------------------------------------------------------------------

def test_default_breakdown_builds_no_dyninst(monkeypatch, tmp_path, capsys):
    # the default engine: the fast core, which reads columns (the
    # reference core is an object-walking consumer by design)
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    if fastcore.sim_native_kernel() is None:
        pytest.skip("native sim kernel unavailable")
    built = []
    init = DynInst.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DynInst, "__init__", counting_init)
    argv = ["breakdown", "gcc", "--focus", "dl1", "--json", "--no-ledger",
            "--cache-dir", str(tmp_path)]
    for extra, source in (((), "generated"),
                          (("--set", "dl1_latency=4"), "loaded")):
        monkeypatch.setattr(registry, "_TRACES", registry._TraceCache(
            registry.TRACE_CACHE_INSTS))
        collector = obs.enable()
        try:
            assert cli.main(argv + list(extra)) == 0
        finally:
            obs.disable()
        capsys.readouterr()
        assert collector.notes["workload.trace.source"] == source
        assert collector.counter("workload.insts_materialized") == 0
        assert not built, f"{len(built)} DynInst objects built ({source})"
