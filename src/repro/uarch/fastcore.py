"""The batched columnar simulator core.

:mod:`repro.uarch.core` is the readable reference model; this module is
its fast twin.  The trace is decoded once into numpy int64 columns
(struct-of-arrays), the branch predictor runs as a separate pre-pass
whose outcome stream is cached per (trace, predictor geometry) -- the
predictor is consulted exactly once per branch in trace order, so its
decisions are independent of pipeline timing -- and the whole cycle
loop (caches, TLBs, in-flight fill table, functional-unit slots, ready
heaps, ROB and fetch-queue rings) runs inside one on-demand-compiled C
kernel, loaded through :mod:`repro.native` like the graph sweep, with
the same compile-with-fallback and environment opt-out
(``REPRO_SIM_NO_NATIVE``) behaviour.

The contract is *bit identity*: for every supported configuration the
fast core produces field-for-field identical :class:`InstEvents`, the
same ``cycles``, the same ``stats`` dict and the same
:class:`SimulationError` text as :class:`OutOfOrderCore`.  The
differential fuzz harness (``tests/test_sim_differential.py``), the
golden event tables (``tests/test_exact_timing.py``) and the invariant
suite (``tests/test_properties.py``) enforce it.

Entry points:

- :func:`simulate` -- drop-in replacement for ``core.simulate`` with an
  ``engine`` selector (``auto``/``fast``/``reference``, defaulted from
  ``REPRO_SIM_ENGINE``); falls back to the reference core when the
  native kernel is unavailable or a configuration is unsupported.
- :func:`simulate_many` / :func:`cycles_many` -- batched entries that
  amortize trace decode and predictor pre-pass across the idealization
  points of a sweep (``cycles_many`` also skips event materialization,
  which dominates once the kernel is this fast).
"""

from __future__ import annotations

import ctypes
import os
import weakref
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.isa.instructions import OpClass, Opcode
from repro.isa.trace import OPCLASS_CODE, OPCLASSES, OPCODES, Trace
from repro.native import NativeKernel, i64_ptr as _ptr
from repro.uarch.config import (
    OPCLASS_TO_FU,
    SIM_ENGINE_NAMES,
    FUKind,
    IdealConfig,
    MachineConfig,
)
from repro.uarch.core import _HUGE, SimulationError
from repro.uarch.events import EVENT_FIELDS, EventColumns, SimResult


def resolve_sim_engine(engine: Optional[str] = None) -> str:
    """The effective engine name: argument, ``REPRO_SIM_ENGINE``, or auto."""
    name = engine or os.environ.get("REPRO_SIM_ENGINE") or "auto"
    if name not in SIM_ENGINE_NAMES:
        raise ValueError(
            f"unknown sim engine {name!r} (choose from {SIM_ENGINE_NAMES})")
    return name


# ----------------------------------------------------------------------
# The native kernel: the full cycle loop in C, compiled on demand.
#
# Bit identity with the Python model rests on two determinism facts:
# every heap element is unique (the pending heap keys on
# ready*(n+1)+seq, the ready heap on seq), so pop order equals sorted
# order regardless of heap internals; and dispatch visits a consumer's
# producers in an order that only feeds commutative max/count updates.
# ----------------------------------------------------------------------

_SIM_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define HUGE_W 1073741824LL /* 1<<30, matches core._HUGE */

/* params layout -- keep in sync with fastcore._P_* */
enum {
    P_WINDOW, P_FETCH_W, P_ISSUE_W, P_COMMIT_W, P_STORE_W, P_FQ_SIZE,
    P_TAKEN_LIMIT, P_F2D, P_C2C, P_RECOVERY, P_WAKEUP_EXTRA, P_LINE_BYTES,
    P_L1I_SETS, P_L1I_WAYS, P_L1D_SETS, P_L1D_WAYS, P_L2_SETS, P_L2_WAYS,
    P_DL1_LAT, P_L2_LAT, P_MEM_LAT, P_TLB_LAT, P_ITLB_ENTRIES,
    P_DTLB_ENTRIES, P_PAGE_BYTES, P_MSHR, P_PERFECT_L1D, P_PERFECT_L1I,
    P_FU_INFINITE, P_WARM, P_CBW, P_MAX_CYCLES,
    P_FU_CAP0, P_FU_CAP1, P_FU_CAP2, P_FU_CAP3, P_FU_CAP4,
    P_COUNT
};

/* per-instruction flag bits -- keep in sync with fastcore._FL_* */
#define FL_LOAD 1
#define FL_STORE 2
#define FL_BRANCH 4
#define FL_TAKEN 8
#define FL_PREFETCH 16
#define FL_MEM 32

/* output rows (out[row*n + i]) -- keep in sync with fastcore._O_* */
enum { O_F, O_D, O_R, O_E, O_P, O_C, O_ICACHE, O_EXLAT, O_DL1C, O_MISSC,
       O_FUCONT, O_STOREBW, O_PP, O_OFLAGS, O_COUNT };
/* O_OFLAGS bits -- keep in sync with fastcore._OF_* */
#define OF_L1I 1
#define OF_L2I 2
#define OF_ITLB 4
#define OF_L1D 8
#define OF_L2D 16
#define OF_DTLB 32
#define OF_MISP 64

/* stats layout -- keep in sync with fastcore._S_* */
enum { S_RETIRED, S_CYCLES,
       S_L1I_H, S_L1I_M, S_L1D_H, S_L1D_M, S_L2_H, S_L2_M,
       S_ITLB_H, S_ITLB_M, S_DTLB_H, S_DTLB_M, S_COUNT };

/* ---- set-associative LRU cache over precomputed keys --------------- */
/* Each set stores its resident tags in LRU order (slot 0 = LRU).  A
 * TLB is the sets==1 case.  Keys are cache-line or page numbers; the
 * set index / tag split matches cache.SetAssocCache._index. */
typedef struct {
    int64_t sets, ways;
    int64_t *tags;  /* sets*ways */
    int64_t *len;   /* sets */
    int64_t hits, misses;
} LRUCache;

static int cache_access(LRUCache *c, int64_t key)
{
    int64_t idx = key % c->sets, tag = key / c->sets;
    int64_t *set = c->tags + idx * c->ways;
    int64_t cnt = c->len[idx], w, j;
    for (w = 0; w < cnt; w++) {
        if (set[w] == tag) {
            for (j = w; j + 1 < cnt; j++)
                set[j] = set[j + 1];
            set[cnt - 1] = tag;
            c->hits++;
            return 1;
        }
    }
    c->misses++;
    if (cnt >= c->ways) {
        for (j = 0; j + 1 < cnt; j++)
            set[j] = set[j + 1];
        set[cnt - 1] = tag;
    } else {
        set[cnt] = tag;
        c->len[idx] = cnt + 1;
    }
    return 0;
}

/* ---- binary min-heaps over unique int64 keys ----------------------- */
static void hpush(int64_t *h, int64_t *len, int64_t v)
{
    int64_t i = (*len)++;
    h[i] = v;
    while (i > 0) {
        int64_t par = (i - 1) / 2, t;
        if (h[par] <= h[i])
            break;
        t = h[par]; h[par] = h[i]; h[i] = t;
        i = par;
    }
}

static int64_t hpop(int64_t *h, int64_t *len)
{
    int64_t top = h[0], v = h[--(*len)];
    int64_t i = 0;
    h[0] = v;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i, t;
        if (l < *len && h[l] < h[m]) m = l;
        if (r < *len && h[r] < h[m]) m = r;
        if (m == i)
            break;
        t = h[i]; h[i] = h[m]; h[m] = t;
        i = m;
    }
    return top;
}

/* ---- the machine --------------------------------------------------- */
typedef struct {
    const int64_t *P;
    LRUCache l1i, l1d, l2, itlb, dtlb;
    /* in-flight fills: line -> (fill cycle, initiator, nonbinding).
     * Mirrors MemoryHierarchy._inflight (an ordered dict pruned inside
     * _mshr_wait); order only matters for compaction, min() and
     * membership are order-independent. */
    int64_t *if_line, *if_fill, *if_init, *if_nb;
    int64_t if_cnt;
} Machine;

typedef struct {
    int64_t latency, dl1c, missc, l1m, l2m, tlbm, pp;
} DAcc;

typedef struct {
    int64_t delay, l1m, l2m, tlbm;
} FAcc;

static int64_t inflight_find(Machine *m, int64_t line)
{
    int64_t k;
    for (k = 0; k < m->if_cnt; k++)
        if (m->if_line[k] == line)
            return k;
    return -1;
}

static int64_t mshr_wait(Machine *m, int64_t cycle)
{
    /* prune completed fills (unconditionally, like _mshr_wait) */
    int64_t k, kept = 0, earliest;
    for (k = 0; k < m->if_cnt; k++) {
        if (m->if_fill[k] > cycle) {
            m->if_line[kept] = m->if_line[k];
            m->if_fill[kept] = m->if_fill[k];
            m->if_init[kept] = m->if_init[k];
            m->if_nb[kept] = m->if_nb[k];
            kept++;
        }
    }
    m->if_cnt = kept;
    if (!m->P[P_MSHR] || m->if_cnt < m->P[P_MSHR])
        return 0;
    earliest = m->if_fill[0];
    for (k = 1; k < m->if_cnt; k++)
        if (m->if_fill[k] < earliest)
            earliest = m->if_fill[k];
    return earliest - cycle > 0 ? earliest - cycle : 0;
}

/* MemoryHierarchy.data_access, branch for branch */
static DAcc data_access(Machine *m, int64_t addr, int64_t cycle,
                        int64_t seq, int is_store, int is_pref)
{
    const int64_t *P = m->P;
    int64_t dl1 = P[P_DL1_LAT], line, tlb_pen, k;
    int tlb_miss, hit;
    DAcc a = {0, 0, 0, 0, 0, 0, -1};
    if (P[P_PERFECT_L1D]) {
        a.latency = dl1; a.dl1c = dl1;
        return a;
    }
    tlb_miss = !cache_access(&m->dtlb, addr / P[P_PAGE_BYTES]);
    tlb_pen = (tlb_miss && !is_store) ? P[P_TLB_LAT] : 0;
    line = addr / P[P_LINE_BYTES];
    hit = cache_access(&m->l1d, line);
    if (is_store) {
        if (!hit)
            cache_access(&m->l2, line);
        a.latency = dl1; a.dl1c = dl1; a.l1m = !hit; a.tlbm = tlb_miss;
        return a;
    }
    if (hit) {
        k = inflight_find(m, line);
        if (k >= 0 && m->if_fill[k] > cycle) {
            int64_t wait = m->if_fill[k] - cycle;
            if (wait < dl1)
                wait = dl1;
            if (is_pref) { /* prefetch of an in-flight line: no-op */
                a.latency = dl1; a.dl1c = dl1; a.l1m = 1; a.tlbm = tlb_miss;
                return a;
            }
            if (m->if_nb[k]) { /* initiator retired: shortened miss */
                a.latency = wait + tlb_pen; a.dl1c = dl1;
                a.missc = wait - dl1 + tlb_pen;
                a.l1m = 1; a.tlbm = tlb_miss;
                return a;
            }
            /* partial miss: completes with the outstanding fill */
            a.latency = wait + tlb_pen; a.dl1c = dl1; a.missc = tlb_pen;
            a.l1m = 1; a.tlbm = tlb_miss; a.pp = m->if_init[k];
            return a;
        }
        a.latency = dl1 + tlb_pen; a.dl1c = dl1; a.missc = tlb_pen;
        a.tlbm = tlb_miss;
        return a;
    }
    {
        int l2_hit = cache_access(&m->l2, line);
        int64_t miss_pen = P[P_L2_LAT] + (l2_hit ? 0 : P[P_MEM_LAT]);
        int64_t wait = mshr_wait(m, cycle);
        int64_t latency = wait + dl1 + miss_pen + tlb_pen;
        k = inflight_find(m, line);
        if (k < 0)
            k = m->if_cnt++;
        m->if_line[k] = line;
        m->if_fill[k] = cycle + latency;
        m->if_init[k] = seq;
        m->if_nb[k] = is_pref;
        if (is_pref) { /* request issued; fill continues in background */
            a.latency = dl1; a.dl1c = dl1; a.l1m = 1; a.l2m = !l2_hit;
            a.tlbm = tlb_miss;
            return a;
        }
        a.latency = latency; a.dl1c = dl1;
        a.missc = wait + miss_pen + tlb_pen;
        a.l1m = 1; a.l2m = !l2_hit; a.tlbm = tlb_miss;
        return a;
    }
}

static FAcc fetch_access(Machine *m, int64_t pc)
{
    const int64_t *P = m->P;
    FAcc f = {0, 0, 0, 0};
    int64_t line;
    int tlb_miss, l2_hit;
    if (P[P_PERFECT_L1I])
        return f;
    tlb_miss = !cache_access(&m->itlb, pc / P[P_PAGE_BYTES]);
    f.tlbm = tlb_miss;
    f.delay = tlb_miss ? P[P_TLB_LAT] : 0;
    line = pc / P[P_LINE_BYTES];
    if (cache_access(&m->l1i, line))
        return f;
    l2_hit = cache_access(&m->l2, line);
    f.delay += P[P_L2_LAT] + (l2_hit ? 0 : P[P_MEM_LAT]);
    f.l1m = 1;
    f.l2m = !l2_hit;
    return f;
}

/* The whole OutOfOrderCore.run cycle loop.  Returns 0 on success, 1
 * when the cycle cap is exceeded (stats[S_RETIRED] holds the retired
 * count for the SimulationError message), -1 on allocation failure. */
int64_t fast_sim(const int64_t *Prm, int64_t n,
                 const int64_t *pc, const int64_t *flags,
                 const int64_t *fukind, const int64_t *maddr,
                 const int64_t *dep_start, const int64_t *dep_prod,
                 const int64_t *dep_flag, const int64_t *mispred,
                 const int64_t *lat_tab, const int64_t *opclass,
                 const int64_t *warm_all, int64_t n_warm_all,
                 const int64_t *warm_l1, int64_t n_warm_l1,
                 int64_t *out, int64_t *stats)
{
    Machine mach;
    Machine *m = &mach;
    int64_t ndeps = dep_start[n];
    int64_t np1 = n + 1;
    int64_t window = Prm[P_WINDOW], fetch_w = Prm[P_FETCH_W];
    int64_t issue_w = Prm[P_ISSUE_W], commit_w = Prm[P_COMMIT_W];
    int64_t store_w = Prm[P_STORE_W], fq_size = Prm[P_FQ_SIZE];
    int64_t taken_limit = Prm[P_TAKEN_LIMIT], f2d = Prm[P_F2D];
    int64_t c2c = Prm[P_C2C], recovery = Prm[P_RECOVERY];
    int64_t wakeup_extra = Prm[P_WAKEUP_EXTRA];
    int64_t line_bytes = Prm[P_LINE_BYTES];
    int64_t max_cycles = Prm[P_MAX_CYCLES];
    int64_t fu_cap[5];
    int fu_inf = (int)Prm[P_FU_INFINITE];
    int64_t fu_used[5];
    int64_t *issued, *pendcnt, *ready_val;
    int64_t *whead, *wtail, *wcons, *wflag, *wnext;
    int64_t *pend_heap, *ready_heap, *skip;
    int64_t *rob, *fq_seq, *fq_cyc;
    int64_t pend_len = 0, ready_len = 0;
    int64_t rob_head = 0, rob_len = 0, fq_head = 0, fq_len = 0;
    int64_t nnodes = 0;
    int64_t fetch_idx = 0, fetch_stall_until = 0, fetch_blocked = -1;
    int64_t cycle = 0, retired = 0;
    int64_t i, k;
    char *blob;
    size_t need, off = 0;
    int64_t *F = out + (size_t)O_F * n, *D = out + (size_t)O_D * n;
    int64_t *R = out + (size_t)O_R * n, *E = out + (size_t)O_E * n;
    int64_t *Pc = out + (size_t)O_P * n, *C = out + (size_t)O_C * n;
    int64_t *ICACHE = out + (size_t)O_ICACHE * n;
    int64_t *EXLAT = out + (size_t)O_EXLAT * n;
    int64_t *DL1C = out + (size_t)O_DL1C * n;
    int64_t *MISSC = out + (size_t)O_MISSC * n;
    int64_t *FUCONT = out + (size_t)O_FUCONT * n;
    int64_t *STOREBW = out + (size_t)O_STOREBW * n;
    int64_t *PP = out + (size_t)O_PP * n;
    int64_t *OFLAGS = out + (size_t)O_OFLAGS * n;

    fu_cap[0] = Prm[P_FU_CAP0]; fu_cap[1] = Prm[P_FU_CAP1];
    fu_cap[2] = Prm[P_FU_CAP2]; fu_cap[3] = Prm[P_FU_CAP3];
    fu_cap[4] = Prm[P_FU_CAP4];

    m->P = Prm;
    m->l1i.sets = Prm[P_L1I_SETS]; m->l1i.ways = Prm[P_L1I_WAYS];
    m->l1d.sets = Prm[P_L1D_SETS]; m->l1d.ways = Prm[P_L1D_WAYS];
    m->l2.sets = Prm[P_L2_SETS]; m->l2.ways = Prm[P_L2_WAYS];
    m->itlb.sets = 1; m->itlb.ways = Prm[P_ITLB_ENTRIES];
    m->dtlb.sets = 1; m->dtlb.ways = Prm[P_DTLB_ENTRIES];

    need = (size_t)(m->l1i.sets * m->l1i.ways + m->l1i.sets
                    + m->l1d.sets * m->l1d.ways + m->l1d.sets
                    + m->l2.sets * m->l2.ways + m->l2.sets
                    + m->itlb.ways + 1 + m->dtlb.ways + 1
                    + 4 * np1          /* in-flight table */
                    + 3 * n            /* issued, pendcnt, ready_val */
                    + 2 * n            /* whead, wtail */
                    + 3 * (ndeps + 1)  /* waiter nodes */
                    + 3 * n            /* pend/ready heaps, skip list */
                    + 3 * n            /* rob, fq_seq, fq_cyc */
                    + 16) * sizeof(int64_t);
    blob = (char *)malloc(need);
    if (!blob)
        return -1;
    memset(blob, 0, need);
#define TAKE(var, count) do { \
        var = (int64_t *)(blob + off); \
        off += (size_t)(count) * sizeof(int64_t); \
    } while (0)
    TAKE(m->l1i.tags, m->l1i.sets * m->l1i.ways);
    TAKE(m->l1i.len, m->l1i.sets);
    TAKE(m->l1d.tags, m->l1d.sets * m->l1d.ways);
    TAKE(m->l1d.len, m->l1d.sets);
    TAKE(m->l2.tags, m->l2.sets * m->l2.ways);
    TAKE(m->l2.len, m->l2.sets);
    TAKE(m->itlb.tags, m->itlb.ways);
    TAKE(m->itlb.len, 1);
    TAKE(m->dtlb.tags, m->dtlb.ways);
    TAKE(m->dtlb.len, 1);
    TAKE(m->if_line, np1);
    TAKE(m->if_fill, np1);
    TAKE(m->if_init, np1);
    TAKE(m->if_nb, np1);
    TAKE(issued, n);
    TAKE(pendcnt, n);
    TAKE(ready_val, n);
    TAKE(whead, n);
    TAKE(wtail, n);
    TAKE(wcons, ndeps + 1);
    TAKE(wflag, ndeps + 1);
    TAKE(wnext, ndeps + 1);
    TAKE(pend_heap, n);
    TAKE(ready_heap, n);
    TAKE(skip, n);
    TAKE(rob, n);
    TAKE(fq_seq, n);
    TAKE(fq_cyc, n);
#undef TAKE
    m->l1i.hits = m->l1i.misses = 0;
    m->l1d.hits = m->l1d.misses = 0;
    m->l2.hits = m->l2.misses = 0;
    m->itlb.hits = m->itlb.misses = 0;
    m->dtlb.hits = m->dtlb.misses = 0;
    m->if_cnt = 0;
    for (i = 0; i < n; i++) {
        whead[i] = -1;
        wtail[i] = -1;
    }

    /* ---- warm-up (MemoryHierarchy.warm_*) -------------------------- */
    if (Prm[P_WARM]) {
        int64_t last_line = -1;
        for (i = 0; i < n; i++) {
            int64_t line = pc[i] / line_bytes;
            if (line == last_line)
                continue;
            last_line = line;
            cache_access(&m->itlb, pc[i] / Prm[P_PAGE_BYTES]);
            if (!cache_access(&m->l1i, line))
                cache_access(&m->l2, line);
        }
        m->l1i.hits = m->l1i.misses = 0;
        m->l2.hits = m->l2.misses = 0;
        m->itlb.hits = m->itlb.misses = 0;
        for (k = 0; k < n_warm_all; k++) {
            int64_t start = warm_all[2 * k], end = warm_all[2 * k + 1];
            int64_t page = Prm[P_PAGE_BYTES], addr;
            for (addr = start - start % page; addr < end; addr += page)
                cache_access(&m->dtlb, addr / page);
            for (addr = start - start % line_bytes; addr < end;
                 addr += line_bytes)
                cache_access(&m->l2, addr / line_bytes);
        }
        for (k = 0; k < n_warm_l1; k++) {
            int64_t start = warm_l1[2 * k], end = warm_l1[2 * k + 1];
            int64_t addr;
            for (addr = start - start % line_bytes; addr < end;
                 addr += line_bytes)
                cache_access(&m->l1d, addr / line_bytes);
        }
        m->l1d.hits = m->l1d.misses = 0;
        m->l2.hits = m->l2.misses = 0;
        m->dtlb.hits = m->dtlb.misses = 0;
    }

    /* ---- the cycle loop -------------------------------------------- */
    for (;;) {
        int64_t work = 0, committed = 0, stores_committed = 0;
        int64_t issued_now = 0, dispatched = 0, fetched = 0;

        if (cycle > max_cycles) {
            stats[S_RETIRED] = retired;
            free(blob);
            return 1;
        }

        /* commit */
        while (rob_len && committed < commit_w) {
            int64_t seq = rob[rob_head];
            int is_store = (flags[seq] & FL_STORE) != 0;
            if (!issued[seq] || Pc[seq] + c2c > cycle)
                break;
            if (is_store && stores_committed >= store_w)
                break;
            rob_head = (rob_head + 1) % n;
            rob_len--;
            C[seq] = cycle;
            committed++;
            retired++;
            if (is_store)
                stores_committed++;
        }
        work += committed;

        /* issue (outer loop: zero-latency same-cycle wakeup) */
        fu_used[0] = fu_used[1] = fu_used[2] = fu_used[3] = fu_used[4] = 0;
        for (;;) {
            int64_t progress = 0, nskip = 0, j;
            while (pend_len && pend_heap[0] / np1 <= cycle) {
                int64_t key = hpop(pend_heap, &pend_len);
                hpush(ready_heap, &ready_len, key % np1);
            }
            if (!ready_len || issued_now >= issue_w)
                break;
            while (ready_len && issued_now < issue_w) {
                int64_t seq = hpop(ready_heap, &ready_len);
                int64_t kind = fukind[seq], latency, node;
                if (!fu_inf) {
                    if (fu_used[kind] >= fu_cap[kind]) {
                        int sat = 1;
                        skip[nskip++] = seq;
                        for (j = 0; j < 5; j++)
                            if (fu_used[j] < fu_cap[j]) {
                                sat = 0;
                                break;
                            }
                        if (sat)
                            break;
                        continue;
                    }
                    fu_used[kind]++;
                }
                E[seq] = cycle;
                FUCONT[seq] = cycle - R[seq];
                if (flags[seq] & FL_MEM) {
                    DAcc a = data_access(m, maddr[seq], cycle, seq,
                                         (flags[seq] & FL_STORE) != 0,
                                         (flags[seq] & FL_PREFETCH) != 0);
                    DL1C[seq] = a.dl1c;
                    MISSC[seq] = a.missc;
                    OFLAGS[seq] |= (a.l1m ? OF_L1D : 0)
                        | (a.l2m ? OF_L2D : 0) | (a.tlbm ? OF_DTLB : 0);
                    PP[seq] = a.pp;
                    latency = a.latency;
                } else {
                    latency = lat_tab[opclass[seq]];
                }
                EXLAT[seq] = latency;
                Pc[seq] = cycle + latency;
                issued[seq] = 1;
                issued_now++;
                progress++;
                if (mispred[seq] && fetch_blocked == seq) {
                    int64_t t = Pc[seq] + recovery - f2d;
                    if (fetch_stall_until > t)
                        t = fetch_stall_until;
                    if (cycle + 1 > t)
                        t = cycle + 1;
                    fetch_stall_until = t;
                    fetch_blocked = -1;
                }
                /* wake consumers (on_issue) */
                for (node = whead[seq]; node >= 0; node = wnext[node]) {
                    int64_t cons = wcons[node];
                    int64_t value = Pc[seq]
                        + (wflag[node] ? wakeup_extra : 0);
                    if (value > ready_val[cons])
                        ready_val[cons] = value;
                    if (--pendcnt[cons] == 0) {
                        R[cons] = ready_val[cons];
                        hpush(pend_heap, &pend_len,
                              ready_val[cons] * np1 + cons);
                    }
                }
                whead[seq] = -1;
            }
            for (j = 0; j < nskip; j++)
                hpush(ready_heap, &ready_len, skip[j]);
            if (!progress)
                break;
        }
        work += issued_now;

        /* dispatch */
        while (fq_len && dispatched < issue_w && rob_len < window) {
            int64_t seq = fq_seq[fq_head], rv, wait = 0, e;
            if (fq_cyc[fq_head] > cycle)
                break;
            fq_head = (fq_head + 1) % n;
            fq_len--;
            rob[(rob_head + rob_len) % n] = seq;
            rob_len++;
            D[seq] = cycle;
            rv = cycle + 1;
            for (e = dep_start[seq]; e < dep_start[seq + 1]; e++) {
                int64_t j = dep_prod[e];
                if (issued[j]) {
                    int64_t value = Pc[j]
                        + (dep_flag[e] ? wakeup_extra : 0);
                    if (value > rv)
                        rv = value;
                } else {
                    int64_t node = nnodes++;
                    wcons[node] = seq;
                    wflag[node] = dep_flag[e];
                    wnext[node] = -1;
                    if (wtail[j] >= 0)
                        wnext[wtail[j]] = node;
                    else
                        whead[j] = node;
                    wtail[j] = node;
                    wait++;
                }
            }
            ready_val[seq] = rv;
            pendcnt[seq] = wait;
            if (!wait) {
                R[seq] = rv;
                hpush(pend_heap, &pend_len, rv * np1 + seq);
            }
            dispatched++;
        }
        work += dispatched;

        /* fetch */
        if (cycle >= fetch_stall_until && fetch_blocked < 0) {
            int64_t taken_seen = 0, cur_line = -1;
            while (fetch_idx < n && fetched < fetch_w && fq_len < fq_size) {
                int64_t line = pc[fetch_idx] / line_bytes;
                if (line != cur_line) {
                    FAcc fa = fetch_access(m, pc[fetch_idx]);
                    cur_line = line;
                    if (fa.delay) {
                        ICACHE[fetch_idx] += fa.delay;
                        OFLAGS[fetch_idx] |= (fa.l1m ? OF_L1I : 0)
                            | (fa.l2m ? OF_L2I : 0)
                            | (fa.tlbm ? OF_ITLB : 0);
                        fetch_stall_until = cycle + fa.delay;
                        break;
                    }
                }
                F[fetch_idx] = cycle;
                fq_seq[(fq_head + fq_len) % n] = fetch_idx;
                fq_cyc[(fq_head + fq_len) % n] = cycle + f2d;
                fq_len++;
                fetched++;
                if (flags[fetch_idx] & FL_BRANCH) {
                    if (mispred[fetch_idx]) {
                        OFLAGS[fetch_idx] |= OF_MISP;
                        fetch_blocked = fetch_idx;
                        fetch_idx++;
                        break;
                    }
                    if (flags[fetch_idx] & FL_TAKEN) {
                        taken_seen++;
                        if (taken_seen >= taken_limit) {
                            fetch_idx++;
                            break;
                        }
                    }
                }
                fetch_idx++;
            }
        }
        work += fetched;

        /* advance */
        if (fetch_idx >= n && !rob_len && !fq_len)
            break;
        if (work == 0 && !ready_len) {
            /* _next_event_cycle: skip idle cycles */
            int64_t best = 0;
            int has = 0;
            int64_t cand[4];
            int ncand = 0;
            if (pend_len)
                cand[ncand++] = pend_heap[0] / np1;
            if (fq_len)
                cand[ncand++] = fq_cyc[fq_head];
            if (rob_len && issued[rob[rob_head]])
                cand[ncand++] = Pc[rob[rob_head]] + c2c;
            if (fetch_idx < n && fetch_blocked < 0)
                cand[ncand++] = fetch_stall_until;
            for (k = 0; k < ncand; k++) {
                if (cand[k] > cycle && (!has || cand[k] < best)) {
                    best = cand[k];
                    has = 1;
                }
            }
            cycle = has ? best : cycle + 1;
        } else {
            cycle++;
        }
    }

    /* store commit-bandwidth post-pass (_assign_store_bw_delays) */
    {
        int64_t cbw = Prm[P_CBW];
        for (i = 0; i < n; i++) {
            int64_t floor_, delay;
            if (!(flags[i] & FL_STORE))
                continue;
            floor_ = Pc[i] + c2c;
            if (i >= 1 && C[i - 1] > floor_)
                floor_ = C[i - 1];
            if (i >= cbw && cbw < HUGE_W && C[i - cbw] + 1 > floor_)
                floor_ = C[i - cbw] + 1;
            delay = C[i] - floor_;
            STOREBW[i] = delay > 0 ? delay : 0;
        }
    }

    stats[S_RETIRED] = retired;
    stats[S_CYCLES] = C[n - 1] + 1;
    stats[S_L1I_H] = m->l1i.hits; stats[S_L1I_M] = m->l1i.misses;
    stats[S_L1D_H] = m->l1d.hits; stats[S_L1D_M] = m->l1d.misses;
    stats[S_L2_H] = m->l2.hits; stats[S_L2_M] = m->l2.misses;
    stats[S_ITLB_H] = m->itlb.hits; stats[S_ITLB_M] = m->itlb.misses;
    stats[S_DTLB_H] = m->dtlb.hits; stats[S_DTLB_M] = m->dtlb.misses;
    free(blob);
    return 0;
}

/* ---- the branch-predictor pre-pass --------------------------------- */
/* BranchPredictor.predict_and_update replayed over the branch stream.
 * kind: 0 conditional, 1 J, 2 CALL, 3 RET, 4 JR.
 * geom: [bimodal, gshare, meta, ghr_bits, btb_sets, btb_ways, ras].
 * Writes miss[b] = 1 for each mispredicted branch; returns the
 * mispredict count, or -1 on allocation failure. */
int64_t fast_predict(int64_t nb, const int64_t *pcv, const int64_t *kind,
                     const int64_t *taken, const int64_t *next_pc,
                     const int64_t *geom, int64_t *miss)
{
    int64_t bent = geom[0], gent = geom[1], ment = geom[2];
    int64_t ghr_mask = (1LL << geom[3]) - 1;
    int64_t btb_sets = geom[4], btb_ways = geom[5], ras_cap = geom[6];
    int64_t *bim, *gsh, *meta, *btb_tag, *btb_tgt, *btb_len, *ras;
    int64_t ras_len = 0, ghr = 0, mispredicts = 0;
    int64_t b, i, j;
    char *blob;
    size_t off = 0;
    size_t need = (size_t)(bent + gent + ment + 2 * btb_sets * btb_ways
                           + btb_sets + ras_cap + 8) * sizeof(int64_t);
    blob = (char *)malloc(need);
    if (!blob)
        return -1;
    memset(blob, 0, need);
#define TAKE(var, count) do { \
        var = (int64_t *)(blob + off); \
        off += (size_t)(count) * sizeof(int64_t); \
    } while (0)
    TAKE(bim, bent);
    TAKE(gsh, gent);
    TAKE(meta, ment);
    TAKE(btb_tag, btb_sets * btb_ways);
    TAKE(btb_tgt, btb_sets * btb_ways);
    TAKE(btb_len, btb_sets);
    TAKE(ras, ras_cap);
#undef TAKE
    for (i = 0; i < bent; i++) bim[i] = 2;   /* weakly taken */
    for (i = 0; i < gent; i++) gsh[i] = 2;
    for (i = 0; i < ment; i++) meta[i] = 2;

    for (b = 0; b < nb; b++) {
        int64_t pc = pcv[b];
        int correct;
        switch ((int)kind[b]) {
        case 0: { /* conditional: combining predictor */
            int64_t bi = (pc >> 2) & (bent - 1);
            int64_t gs = ((pc >> 2) ^ ghr) & (gent - 1);
            int64_t mi = (pc >> 2) & (ment - 1);
            int t = (int)taken[b];
            int predicted = meta[mi] >= 2 ? gsh[gs] >= 2 : bim[bi] >= 2;
            int bi_correct = (bim[bi] >= 2) == t;
            int gs_correct = (gsh[gs] >= 2) == t;
            if (bi_correct != gs_correct) {
                if (gs_correct)
                    meta[mi] = meta[mi] < 3 ? meta[mi] + 1 : 3;
                else
                    meta[mi] = meta[mi] > 0 ? meta[mi] - 1 : 0;
            }
            bim[bi] = t ? (bim[bi] < 3 ? bim[bi] + 1 : 3)
                        : (bim[bi] > 0 ? bim[bi] - 1 : 0);
            gsh[gs] = t ? (gsh[gs] < 3 ? gsh[gs] + 1 : 3)
                        : (gsh[gs] > 0 ? gsh[gs] - 1 : 0);
            ghr = ((ghr << 1) | t) & ghr_mask;
            correct = predicted == t;
            break;
        }
        case 1: /* J: direct, always correct */
            correct = 1;
            break;
        case 2: /* CALL: push the return address */
            if (ras_len >= ras_cap) {
                for (i = 0; i + 1 < ras_len; i++)
                    ras[i] = ras[i + 1];
                ras_len--;
            }
            ras[ras_len++] = pc + 4;
            correct = 1;
            break;
        case 3: /* RET: pop and compare */
            if (ras_len > 0) {
                int64_t target = ras[--ras_len];
                correct = target == next_pc[b];
            } else {
                correct = 0;
            }
            break;
        default: { /* JR: indirect through the BTB */
            int64_t idx = (pc >> 2) & (btb_sets - 1), tag = pc >> 2;
            int64_t *tags = btb_tag + idx * btb_ways;
            int64_t *tgts = btb_tgt + idx * btb_ways;
            int64_t cnt = btb_len[idx];
            int64_t target = 0;
            int found = 0;
            for (i = 0; i < cnt; i++) { /* lookup: move hit to MRU */
                if (tags[i] == tag) {
                    int64_t t2 = tgts[i];
                    for (j = i; j + 1 < cnt; j++) {
                        tags[j] = tags[j + 1];
                        tgts[j] = tgts[j + 1];
                    }
                    tags[cnt - 1] = tag;
                    tgts[cnt - 1] = t2;
                    target = t2;
                    found = 1;
                    break;
                }
            }
            correct = found && target == next_pc[b];
            /* update: refresh or install (LRU within the set) */
            found = 0;
            for (i = 0; i < cnt; i++) {
                if (tags[i] == tag) {
                    int64_t t2 = next_pc[b];
                    for (j = i; j + 1 < cnt; j++) {
                        tags[j] = tags[j + 1];
                        tgts[j] = tgts[j + 1];
                    }
                    tags[cnt - 1] = tag;
                    tgts[cnt - 1] = t2;
                    found = 1;
                    break;
                }
            }
            if (!found) {
                if (cnt >= btb_ways) {
                    for (j = 0; j + 1 < cnt; j++) {
                        tags[j] = tags[j + 1];
                        tgts[j] = tgts[j + 1];
                    }
                    tags[cnt - 1] = tag;
                    tgts[cnt - 1] = next_pc[b];
                } else {
                    tags[cnt] = tag;
                    tgts[cnt] = next_pc[b];
                    btb_len[idx] = cnt + 1;
                }
            }
            break;
        }
        }
        if (!correct) {
            mispredicts++;
            miss[b] = 1;
        } else {
            miss[b] = 0;
        }
    }
    free(blob);
    return mispredicts;
}
"""

# params indices (keep in sync with the C enum)
(_P_WINDOW, _P_FETCH_W, _P_ISSUE_W, _P_COMMIT_W, _P_STORE_W, _P_FQ_SIZE,
 _P_TAKEN_LIMIT, _P_F2D, _P_C2C, _P_RECOVERY, _P_WAKEUP_EXTRA,
 _P_LINE_BYTES, _P_L1I_SETS, _P_L1I_WAYS, _P_L1D_SETS, _P_L1D_WAYS,
 _P_L2_SETS, _P_L2_WAYS, _P_DL1_LAT, _P_L2_LAT, _P_MEM_LAT, _P_TLB_LAT,
 _P_ITLB_ENTRIES, _P_DTLB_ENTRIES, _P_PAGE_BYTES, _P_MSHR,
 _P_PERFECT_L1D, _P_PERFECT_L1I, _P_FU_INFINITE, _P_WARM, _P_CBW,
 _P_MAX_CYCLES, _P_FU_CAP0, _P_FU_CAP1, _P_FU_CAP2, _P_FU_CAP3,
 _P_FU_CAP4, _P_COUNT) = range(38)

# per-instruction flag bits
_FL_LOAD, _FL_STORE, _FL_BRANCH, _FL_TAKEN, _FL_PREFETCH, _FL_MEM = (
    1, 2, 4, 8, 16, 32)

# output rows
(_O_F, _O_D, _O_R, _O_E, _O_P, _O_C, _O_ICACHE, _O_EXLAT, _O_DL1C,
 _O_MISSC, _O_FUCONT, _O_STOREBW, _O_PP, _O_OFLAGS, _O_COUNT) = range(15)

_OF_L1I, _OF_L2I, _OF_ITLB, _OF_L1D, _OF_L2D, _OF_DTLB, _OF_MISP = (
    1, 2, 4, 8, 16, 32, 64)

# stats slots
(_S_RETIRED, _S_CYCLES, _S_L1I_H, _S_L1I_M, _S_L1D_H, _S_L1D_M, _S_L2_H,
 _S_L2_M, _S_ITLB_H, _S_ITLB_M, _S_DTLB_H, _S_DTLB_M, _S_COUNT) = range(13)

_FU_IDX = {FUKind.IALU: 0, FUKind.IMUL: 1, FUKind.FALU: 2, FUKind.FMUL: 3,
           FUKind.MEM: 4}
#: per-code tables the trace block's op-class / opcode columns index
#: (the latency table is indexed by op-class code too): FU kind, branch
#: kind code for the predictor pre-pass, and the flag bits
_FU_OF_CLASS = np.asarray([_FU_IDX[OPCLASS_TO_FU[c]] for c in OPCLASSES],
                          dtype=np.int64)
_KIND_OF_OPCODE = np.asarray([{
    Opcode.J: 1, Opcode.CALL: 2, Opcode.RET: 3, Opcode.JR: 4}.get(op, 0)
    for op in OPCODES], dtype=np.int64)
_FLAGS_OF_OPCODE = np.asarray([
    (_FL_LOAD if op.opclass is OpClass.LOAD else 0)
    | (_FL_STORE if op.opclass is OpClass.STORE else 0)
    | (_FL_BRANCH if op.opclass is OpClass.BRANCH else 0)
    | (_FL_PREFETCH if op is Opcode.PREFETCH else 0)
    | (_FL_MEM if op.opclass.is_mem else 0) for op in OPCODES],
    dtype=np.int64)


def _nonempty(col: "np.ndarray") -> "np.ndarray":
    """*col*, or a one-zero placeholder the kernel can point at."""
    return col if len(col) else np.zeros(1, dtype=np.int64)


def _bind_sim(lib):
    ptr = ctypes.POINTER(ctypes.c_int64)
    sim_fn = lib.fast_sim
    sim_fn.argtypes = [ptr, ctypes.c_int64] + [ptr] * 10 + \
        [ptr, ctypes.c_int64, ptr, ctypes.c_int64, ptr, ptr]
    sim_fn.restype = ctypes.c_int64
    predict_fn = lib.fast_predict
    predict_fn.argtypes = [ctypes.c_int64] + [ptr] * 6
    predict_fn.restype = ctypes.c_int64
    return sim_fn, predict_fn


SIM_KERNEL = NativeKernel(
    "simulator", _SIM_KERNEL_SOURCE, ("-O2",),
    env_var="REPRO_SIM_NO_NATIVE", stem="repro-sim-kernel",
    bind=_bind_sim,
    warning=("warning: native C simulator kernel unavailable ({reason}); "
             "the fast sim engine is using the reference core "
             "fallback. Set REPRO_SIM_NO_NATIVE=1 to silence."))
#: The process-wide compiled ``(sim, predict)`` pair (or None), its
#: ``(available, reason)`` status, and the CLI's one-shot warning.
sim_native_kernel = SIM_KERNEL.load
sim_native_kernel_status = SIM_KERNEL.status
sim_native_fallback_warning = SIM_KERNEL.fallback_warning


# ----------------------------------------------------------------------
# Support gate: configurations the fast core does not model run on the
# reference core instead (which also raises the reference errors for
# invalid geometries).
# ----------------------------------------------------------------------

@lru_cache(maxsize=512)
def _fast_supported(cfg: MachineConfig, ideal: IdealConfig) -> bool:
    """True when (cfg, ideal) is inside the fast core's modelled space."""
    if cfg.model_wrong_path:
        return False  # wrong-path fetch pollution stays reference-only
    line = cfg.line_bytes
    if line <= 0 or cfg.page_bytes <= 0 or cfg.page_bytes & (cfg.page_bytes - 1):
        return False
    for size_b, ways in ((cfg.l1i_bytes, cfg.l1i_ways),
                         (cfg.l1d_bytes, cfg.l1d_ways),
                         (cfg.l2_bytes, cfg.l2_ways)):
        if ways <= 0 or size_b <= 0 or size_b % (ways * line):
            return False
    if cfg.itlb_entries <= 0 or cfg.dtlb_entries <= 0:
        return False
    if not ideal.bmisp:
        for entries in (cfg.bimodal_entries, cfg.gshare_entries,
                        cfg.meta_entries, cfg.btb_sets):
            if entries <= 0 or entries & (entries - 1):
                return False
        if cfg.btb_ways <= 0 or cfg.ras_entries <= 0:
            return False
        if not 0 <= cfg.ghr_bits <= 62:
            return False
    return True


# ----------------------------------------------------------------------
# Columnar trace decode (cached per trace) and predictor pre-pass
# (cached per trace per predictor geometry)
# ----------------------------------------------------------------------

class _Columns:
    """Struct-of-arrays view of one trace, shared by every sim point,
    derived from the trace's block with whole-array numpy."""

    __slots__ = ("n", "pc", "flags", "fukind", "maddr", "dep_start",
                 "dep_prod", "dep_flag", "opclass",
                 "branch_idx", "branch_pc", "branch_kind", "branch_taken",
                 "branch_next", "warm_all", "warm_l1", "zero_mispred",
                 "num_branches")

    def __init__(self, trace: Trace) -> None:
        block = trace.block
        n = self.n = block.n
        opcode = block.opcode
        self.pc = block.pc
        self.opclass = block.opclass
        self.fukind = _FU_OF_CLASS.take(self.opclass)
        taken = block.taken
        self.flags = _FLAGS_OF_OPCODE.take(opcode) | (taken * _FL_TAKEN)
        is_mem = (self.flags & _FL_MEM) != 0
        self.maddr = np.where(is_mem, block.addr.view(np.int64), 0)
        # dependence edges: the unique register producers (flag 1), then
        # a load's store producer unless it is one of them (flag 0, no
        # wakeup extra) -- the graph builder's deduplicated CSR
        icols = trace.inst_columns()
        has_mem = icols.mem_extra >= 0
        dep_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(has_mem, out=dep_start[1:])
        dep_start += icols.pr_start
        total = int(dep_start[-1])
        mem_slot = dep_start[1:][has_mem] - 1
        dep_flag = np.ones(total, dtype=np.int64)
        dep_flag[mem_slot] = 0
        dep_prod = np.empty(total, dtype=np.int64)
        dep_prod[mem_slot] = icols.mem_extra[has_mem]
        dep_prod[dep_flag == 1] = icols.pr_prod
        self.dep_start = dep_start
        self.dep_prod = _nonempty(dep_prod)
        self.dep_flag = _nonempty(dep_flag)
        b_idx = self.branch_idx = np.nonzero(
            self.opclass == OPCLASS_CODE[OpClass.BRANCH])[0]
        self.num_branches = len(b_idx)
        self.branch_pc = _nonempty(self.pc[b_idx])
        self.branch_kind = _nonempty(_KIND_OF_OPCODE[opcode[b_idx]])
        self.branch_taken = _nonempty(taken[b_idx].astype(np.int64))
        self.branch_next = _nonempty(block.next_pc[b_idx])
        warm_l1 = tuple(getattr(trace, "warm_l1_ranges", ()))
        warm_all = tuple(getattr(trace, "warm_l2_ranges", ())) + warm_l1
        self.warm_all = np.asarray(
            [v for r in warm_all for v in r] or [0], dtype=np.int64)
        self.warm_l1 = np.asarray(
            [v for r in warm_l1 for v in r] or [0], dtype=np.int64)
        self.zero_mispred = np.zeros(n if n else 1, dtype=np.int64)


_COLUMNS_CACHE: "weakref.WeakKeyDictionary[Trace, _Columns]" = \
    weakref.WeakKeyDictionary()
_PREDICT_CACHE: "weakref.WeakKeyDictionary[Trace, Dict]" = \
    weakref.WeakKeyDictionary()


def _columns(trace: Trace) -> _Columns:
    cols = _COLUMNS_CACHE.get(trace)
    if cols is None:
        cols = _Columns(trace)
        _COLUMNS_CACHE[trace] = cols
    return cols


def _predictor_geometry(cfg: MachineConfig) -> Tuple[int, ...]:
    return (cfg.bimodal_entries, cfg.gshare_entries, cfg.meta_entries,
            cfg.ghr_bits, cfg.btb_sets, cfg.btb_ways, cfg.ras_entries)


def _predictions(trace: Trace, cols: _Columns, cfg: MachineConfig,
                 predict_fn) -> Tuple["np.ndarray", int, int]:
    """``(mispred column, lookups, mispredicts)`` for *trace* under
    *cfg*'s predictor geometry, cached per trace.

    The predictor is consulted exactly once per branch in trace order
    (timing never reorders fetch), so the outcome stream is a pure
    function of (trace, geometry) and is shared by every idealization
    point of a sweep.
    """
    geom = _predictor_geometry(cfg)
    per_trace = _PREDICT_CACHE.get(trace)
    if per_trace is None:
        per_trace = {}
        _PREDICT_CACHE[trace] = per_trace
    hit = per_trace.get(geom)
    if hit is not None:
        return hit
    nb = cols.num_branches
    mispred = np.zeros(cols.n if cols.n else 1, dtype=np.int64)
    if nb:
        miss = np.zeros(nb, dtype=np.int64)
        geom_arr = np.asarray(geom, dtype=np.int64)
        mispredicts = int(predict_fn(
            nb, _ptr(cols.branch_pc), _ptr(cols.branch_kind),
            _ptr(cols.branch_taken), _ptr(cols.branch_next),
            _ptr(geom_arr), _ptr(miss)))
        if mispredicts < 0:
            raise MemoryError("predictor pre-pass allocation failed")
        mispred[cols.branch_idx] = miss
    else:
        mispredicts = 0
    entry = (mispred, nb, mispredicts)
    per_trace[geom] = entry
    return entry


# ----------------------------------------------------------------------
# Running one point through the kernel
# ----------------------------------------------------------------------

def _params_for(cfg: MachineConfig, ideal: IdealConfig,
                n: int) -> "np.ndarray":
    p = np.zeros(_P_COUNT, dtype=np.int64)
    huge = _HUGE
    p[_P_WINDOW] = cfg.window_size * (
        cfg.infinite_window_factor if ideal.win else 1)
    p[_P_FETCH_W] = huge if ideal.bw else cfg.fetch_width
    p[_P_ISSUE_W] = huge if ideal.bw else cfg.issue_width
    p[_P_COMMIT_W] = huge if ideal.bw else cfg.commit_width
    p[_P_STORE_W] = huge if ideal.bw else cfg.store_commit_width
    p[_P_FQ_SIZE] = huge if ideal.bw else cfg.fetch_queue_size
    p[_P_TAKEN_LIMIT] = huge if ideal.bw else cfg.taken_branches_per_fetch
    p[_P_F2D] = cfg.fetch_to_dispatch
    p[_P_C2C] = cfg.complete_to_commit
    p[_P_RECOVERY] = cfg.mispredict_recovery
    p[_P_WAKEUP_EXTRA] = cfg.issue_wakeup - 1
    p[_P_LINE_BYTES] = cfg.line_bytes
    line = cfg.line_bytes
    p[_P_L1I_SETS] = cfg.l1i_bytes // (cfg.l1i_ways * line)
    p[_P_L1I_WAYS] = cfg.l1i_ways
    p[_P_L1D_SETS] = cfg.l1d_bytes // (cfg.l1d_ways * line)
    p[_P_L1D_WAYS] = cfg.l1d_ways
    p[_P_L2_SETS] = cfg.l2_bytes // (cfg.l2_ways * line)
    p[_P_L2_WAYS] = cfg.l2_ways
    p[_P_DL1_LAT] = 0 if ideal.dl1 else cfg.dl1_latency
    p[_P_L2_LAT] = cfg.l2_latency
    p[_P_MEM_LAT] = cfg.memory_latency
    p[_P_TLB_LAT] = cfg.tlb_miss_latency
    p[_P_ITLB_ENTRIES] = cfg.itlb_entries
    p[_P_DTLB_ENTRIES] = cfg.dtlb_entries
    p[_P_PAGE_BYTES] = cfg.page_bytes
    p[_P_MSHR] = cfg.mshr_entries
    p[_P_PERFECT_L1D] = int(ideal.dmiss)
    p[_P_PERFECT_L1I] = int(ideal.imiss)
    p[_P_FU_INFINITE] = int(ideal.bw)
    p[_P_WARM] = int(cfg.warm_caches)
    p[_P_CBW] = huge if ideal.bw else cfg.commit_width
    p[_P_MAX_CYCLES] = 10_000 + 500 * n
    caps = cfg.fu_counts()
    p[_P_FU_CAP0] = caps[FUKind.IALU]
    p[_P_FU_CAP1] = caps[FUKind.IMUL]
    p[_P_FU_CAP2] = caps[FUKind.FALU]
    p[_P_FU_CAP3] = caps[FUKind.FMUL]
    p[_P_FU_CAP4] = caps[FUKind.MEM]
    return p


def _latency_table(cfg: MachineConfig, ideal: IdealConfig) -> "np.ndarray":
    tab = np.zeros(8, dtype=np.int64)
    tab[OPCLASS_CODE[OpClass.IALU]] = 0 if ideal.shalu else 1
    tab[OPCLASS_CODE[OpClass.IMUL]] = 0 if ideal.lgalu else cfg.imul_latency
    tab[OPCLASS_CODE[OpClass.FALU]] = 0 if ideal.lgalu else cfg.falu_latency
    tab[OPCLASS_CODE[OpClass.FMUL]] = 0 if ideal.lgalu else cfg.fmul_latency
    tab[OPCLASS_CODE[OpClass.FDIV]] = 0 if ideal.lgalu else cfg.fdiv_latency
    tab[OPCLASS_CODE[OpClass.BRANCH]] = 1
    # LOAD/STORE latencies come from the memory hierarchy, not the table
    return tab


def _kernel_run(trace: Trace, cfg: MachineConfig, ideal: IdealConfig,
                kernel) -> Tuple["np.ndarray", "np.ndarray", int, int]:
    """Run one point; returns ``(out, stats_arr, lookups, mispredicts)``."""
    sim_fn, predict_fn = kernel
    cols = _columns(trace)
    n = cols.n
    if ideal.bmisp:
        mispred, lookups, mispredicts = cols.zero_mispred, 0, 0
    else:
        mispred, lookups, mispredicts = _predictions(
            trace, cols, cfg, predict_fn)
    params = _params_for(cfg, ideal, n)
    lat_tab = _latency_table(cfg, ideal)
    out = np.zeros((_O_COUNT, n), dtype=np.int64)
    out[_O_PP, :] = -1
    stats_arr = np.zeros(_S_COUNT, dtype=np.int64)
    rc = int(sim_fn(
        _ptr(params), n, _ptr(cols.pc), _ptr(cols.flags), _ptr(cols.fukind),
        _ptr(cols.maddr), _ptr(cols.dep_start), _ptr(cols.dep_prod),
        _ptr(cols.dep_flag), _ptr(mispred), _ptr(lat_tab), _ptr(cols.opclass),
        _ptr(cols.warm_all), len(cols.warm_all) // 2,
        _ptr(cols.warm_l1), len(cols.warm_l1) // 2,
        _ptr(out), _ptr(stats_arr)))
    if rc == 1:
        max_cycles = int(params[_P_MAX_CYCLES])
        retired = int(stats_arr[_S_RETIRED])
        raise SimulationError(
            f"{trace.name}: exceeded {max_cycles} cycles "
            f"(retired {retired}/{n})"
        )
    if rc != 0:
        raise MemoryError("native simulator kernel allocation failed")
    return out, stats_arr, lookups, mispredicts


def _stats_dict(ideal: IdealConfig, stats_arr, cycles: int,
                lookups: int, mispredicts: int) -> Dict[str, float]:
    def rate(h, m):
        hits, misses = int(stats_arr[h]), int(stats_arr[m])
        total = hits + misses
        return misses / total if total else 0.0

    stats = {
        "cycles": float(cycles),
        "l1d_miss_rate": rate(_S_L1D_H, _S_L1D_M),
        "l1i_miss_rate": rate(_S_L1I_H, _S_L1I_M),
        "l2_miss_rate": rate(_S_L2_H, _S_L2_M),
        "dtlb_miss_rate": rate(_S_DTLB_H, _S_DTLB_M),
        "itlb_miss_rate": rate(_S_ITLB_H, _S_ITLB_M),
    }
    if not ideal.bmisp:
        stats["mispredict_rate"] = mispredicts / lookups if lookups else 0.0
    return stats


#: kernel output row -> InstEvents column row, for the directly copied
#: (non-bool, non-derived) fields
_OUT_TO_EVENT = (
    (_O_F, "f"), (_O_D, "d"), (_O_R, "r"), (_O_E, "e"), (_O_P, "p"),
    (_O_C, "c"), (_O_ICACHE, "icache_delay"), (_O_EXLAT, "exec_latency"),
    (_O_DL1C, "dl1_component"), (_O_MISSC, "miss_component"),
    (_O_FUCONT, "fu_contention"), (_O_STOREBW, "store_bw_delay"),
    (_O_PP, "pp_partner"),
)
#: OFLAGS bit -> InstEvents bool column
_OFLAG_TO_EVENT = (
    (_OF_L1I, "l1i_miss"), (_OF_L2I, "l2i_miss"), (_OF_ITLB, "itlb_miss"),
    (_OF_L1D, "l1d_miss"), (_OF_L2D, "l2d_miss"), (_OF_DTLB, "dtlb_miss"),
    (_OF_MISP, "mispredicted"),
)


def _columns_result(trace: Trace, cfg: MachineConfig, ideal: IdealConfig,
                    out, stats_arr, lookups: int,
                    mispredicts: int) -> SimResult:
    """Build the columnar SimResult straight from the kernel's output
    rows -- whole-array moves and bit tests, no per-instruction loop.
    The events facade materializes objects bit-identical to the
    reference core's list only if legacy code indexes it."""
    cols = _columns(trace)
    n = cols.n
    mat = np.empty((len(EVENT_FIELDS), n), dtype=np.int64)
    row_of = {name: i for i, name in enumerate(EVENT_FIELDS)}
    mat[row_of["seq"], :] = np.arange(n, dtype=np.int64)
    mat[row_of["pc"], :] = cols.pc
    for src_row, name in _OUT_TO_EVENT:
        mat[row_of[name], :] = out[src_row]
    oflags = out[_O_OFLAGS]
    for bit, name in _OFLAG_TO_EVENT:
        mat[row_of[name], :] = (oflags & bit) != 0
    cycles = int(stats_arr[_S_CYCLES])
    stats = _stats_dict(ideal, stats_arr, cycles, lookups, mispredicts)
    return SimResult.from_columns(trace, cfg, ideal, EventColumns(mat),
                                  cycles, stats)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def _fast_available(trace: Trace, cfg: MachineConfig,
                    ideal: IdealConfig, engine: str) -> Optional[tuple]:
    """The kernel pair when the fast path applies, else None (with the
    fallback counter emitted when the kernel itself is the blocker)."""
    if engine == "reference" or len(trace.insts) == 0:
        return None
    if not _fast_supported(cfg, ideal):
        obs.count("sim.unsupported_config")
        return None
    kernel = sim_native_kernel()
    if kernel is None:
        obs.count("sim.native_fallback")
        return None
    return kernel


def simulate(trace: Trace, config: Optional[MachineConfig] = None,
             ideal: Optional[IdealConfig] = None,
             engine: Optional[str] = None) -> SimResult:
    """Run *trace* once, through the selected engine.

    Drop-in for :func:`repro.uarch.core.simulate`: identical events,
    cycles and stats.  ``engine`` overrides ``REPRO_SIM_ENGINE``
    (``auto``/``fast`` prefer the native kernel and fall back to the
    reference core; ``reference`` forces the original model).
    """
    from repro.uarch.core import simulate as _reference_simulate

    cfg = config or MachineConfig()
    idl = ideal or IdealConfig()
    eng = resolve_sim_engine(engine)
    kernel = _fast_available(trace, cfg, idl, eng)
    if kernel is None:
        return _reference_simulate(trace, config, ideal)
    with obs.span("sim.run", insns=len(trace.insts),
                  idealized=ideal is not None, engine="fast") as sp:
        payload = _kernel_run(trace, cfg, idl, kernel)
        result = _columns_result(trace, cfg, idl, *payload)
        sp.set(cycles=result.cycles)
    obs.count("sim.fast_runs")
    return result


def _as_sweep_point(point) -> Tuple[Optional[MachineConfig],
                                    Optional[IdealConfig]]:
    if isinstance(point, tuple):
        cfg, idl = point
        return cfg, idl
    if isinstance(point, IdealConfig) or point is None:
        return None, point
    return point, None  # a bare MachineConfig


def simulate_many(trace: Trace, points: Sequence,
                  engine: Optional[str] = None) -> List[SimResult]:
    """Full results for a batch of ``(config, ideal)`` points.

    Decodes the trace and runs the predictor pre-pass once, then drives
    every point through the native kernel; unsupported points (and all
    points under ``engine='reference'``) run on the reference core, so
    the returned list is always complete and bit-identical either way.
    """
    return _run_batch(trace, points, engine, want_events=True)


def cycles_many(trace: Trace, points: Sequence,
                engine: Optional[str] = None) -> List[int]:
    """Cycle counts for a batch of points, skipping event building.

    The cheapest sweep path: no :class:`InstEvents` are materialized,
    so the per-point cost is essentially the C kernel alone.
    """
    results = _run_batch(trace, points, engine, want_events=False)
    return [r if isinstance(r, int) else r.cycles for r in results]


def _run_batch(trace: Trace, points: Sequence, engine: Optional[str],
               want_events: bool) -> List:
    from repro.uarch.core import simulate as _reference_simulate

    eng = resolve_sim_engine(engine)
    resolved = [_as_sweep_point(p) for p in points]
    out: List = []
    with obs.span("sim.batch", points=len(resolved),
                  insns=len(trace.insts), engine=eng):
        for config, ideal in resolved:
            cfg = config or MachineConfig()
            idl = ideal or IdealConfig()
            kernel = _fast_available(trace, cfg, idl, eng)
            if kernel is None:
                result = _reference_simulate(trace, config, ideal)
                out.append(result.cycles if not want_events else result)
                continue
            payload = _kernel_run(trace, cfg, idl, kernel)
            obs.count("sim.fast_runs")
            if want_events:
                out.append(_columns_result(trace, cfg, idl, *payload))
            else:
                out.append(int(payload[1][_S_CYCLES]))
        obs.count("sim.batched_points", len(resolved))
    return out
