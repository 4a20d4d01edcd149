"""Outside-in tracer for ncmoment.

Wraps public ncmoment functions without editing any source file: every
attribute of a loaded ``ncmoment`` module that holds a traced function is
rebound to a wrapper.  That covers the names that ``momentize``, ``conic``,
``qgraph``, ``entdim`` and ``cli`` import with ``from ... import`` as well as
calls inside the defining module.

Two passes use it.  The timed traced pass (``Tracer``) records spans and
nothing else.  A span has a name, start, end, parent span and operation id.
Spans are kept in compact arrays while the pass runs and written out when it
ends.  Self time is a span's duration minus the time covered by its child
spans.  ``reduce_word`` gets no span: it runs millions of times, so a span per
call would cost more than the call; its time falls into the caller's self
time.

The untimed pass (``Probe``) records no spans.  It counts ``reduce_word``
calls and distinct ``canonical_reduced`` inputs, reads sizes from the
returned problems and IPM results, and takes peak allocations.  Kept out of
the timed pass, these hooks cannot inflate its self times.  Its child runs with
``PYTHONMALLOC=malloc``, so Python objects, numpy arrays and BLAS workspaces
all come from glibc's malloc; inside each function whose peak is reported a
thread reads glibc's in-use byte count about every millisecond, and the peak
is the highest reading minus the reading at entry.  ``tracemalloc`` would give
Python-level peaks only, missing BLAS workspaces, and it slows
``build_xi_problem`` about sixfold: the (2,2,1,2) r = 3 build took 67-110 s
under it instead of 12-20 s.
"""

from __future__ import annotations

import contextlib
import ctypes
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

from ncmoment import _ipm, cli, conic, corrlab, entdim, momentize, ncwords, qgraph

# (module, function name, metric prefix); the qgraph and entdim entries only
# give parent spans.
SPANNED = [
    (ncwords, "canonical_reduced", "ncwords.canonical_reduced"),
    (ncwords, "enumerate_basis", "ncwords.enumerate_basis"),
    (momentize, "moment_block", "momentize.moment_block"),
    (momentize, "localizing_block", "momentize.localizing_block"),
    (momentize, "ideal_constraints", "momentize.ideal_constraints"),
    (momentize, "state_commutator_constraints",
     "momentize.state_commutator_constraints"),
    (momentize, "assemble", "momentize.assemble"),
    (conic, "solve", "conic.solve"),
    (conic, "feasibility", "conic.feasibility"),
    (conic, "flatness", "conic.flatness"),
    (_ipm, "solve_ipm", "ipm.solve_ipm"),
    (corrlab, "classical_membership", "corrlab.classical_membership"),
    (cli, "main", "cli.main"),
    (entdim, "xi_q", "entdim.xi_q"),
    (entdim, "build_xi_problem", "entdim.build_xi_problem"),
    (qgraph, "theta", "qgraph.theta"),
    (qgraph, "xi_stab", "qgraph.xi_stab"),
    (qgraph, "xi_col", "qgraph.xi_col"),
    (qgraph, "lasserre_stab", "qgraph.lasserre_stab"),
    (qgraph, "gamma_col", "qgraph.gamma_col"),
    (qgraph, "gamma_stab", "qgraph.gamma_stab"),
    (qgraph, "gamma_col_via_product", "qgraph.gamma_col_via_product"),
    (qgraph, "gamma_stab_via_product", "qgraph.gamma_stab_via_product"),
    (qgraph, "Lambda", "qgraph.Lambda"),
    (qgraph, "build_stab_problem", "qgraph.build_stab_problem"),
    (qgraph, "build_col_problem", "qgraph.build_col_problem"),
    (qgraph, "col_system_feasible", "qgraph.col_system_feasible"),
    (qgraph, "stab_system_feasible", "qgraph.stab_system_feasible"),
]
# Counted by the untimed pass only; see the module docstring.
COUNTED = [(ncwords, "reduce_word", "ncwords.reduce_word")]
PEAK = ["entdim.build_xi_problem", "ipm.solve_ipm"]
# Slots reserved for the hashes of canonical_reduced inputs before the pass
# starts, so that recording them does not grow memory inside a PEAK function.
# The largest pass, chsh-xiq, makes 51,088 calls.
HASH_SLOTS = 1 << 20

# Metrics of the timed traced pass.
SELF_S = [
    "ncwords.canonical_reduced", "ncwords.enumerate_basis",
    "momentize.moment_block", "momentize.localizing_block",
    "momentize.ideal_constraints", "momentize.state_commutator_constraints",
    "momentize.assemble", "conic.solve", "conic.feasibility", "conic.flatness",
    "ipm.solve_ipm", "corrlab.classical_membership", "cli.main",
]
CALLS = ["ncwords.canonical_reduced", "ncwords.enumerate_basis",
         "conic.feasibility", "ipm.solve_ipm"]


class _MallInfo2(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


class MallocPeak:
    """Highest growth of glibc's in-use bytes from construction to ``stop``."""

    PERIOD_S = 0.001
    _mallinfo2 = None

    def __init__(self):
        if MallocPeak._mallinfo2 is None:
            fn = ctypes.CDLL(None).mallinfo2  # glibc >= 2.33
            fn.restype = _MallInfo2
            MallocPeak._mallinfo2 = fn
        self.base = self.peak = self.used()
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._sample, daemon=True)
        self.thread.start()

    def used(self) -> int:
        info = MallocPeak._mallinfo2()
        return info.uordblks + info.hblkhd

    def _sample(self):
        while not self.done.wait(self.PERIOD_S):
            self.peak = max(self.peak, self.used())

    def stop(self) -> int:
        self.done.set()
        self.thread.join()
        return max(self.peak, self.used()) - self.base


def rebind(wrappers: dict) -> list:
    """Rebind every ncmoment module attribute that holds a wrapped function.

    ``wrappers`` maps a name in SPANNED or COUNTED to a function that wraps
    it.  Returns the (module, attribute, original) triples that undo the
    rebinding.
    """
    funcs = {name: getattr(mod, attr) for mod, attr, name in SPANNED + COUNTED}
    by_id = {id(funcs[name]): wrap(funcs[name])
             for name, wrap in wrappers.items()}
    restore = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ncmoment"
                               or modname.startswith("ncmoment.")):
            continue
        for attr, val in list(vars(mod).items()):
            wrapper = by_id.get(id(val))  # ids are unique: funcs are alive
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                restore.append((mod, attr, val))
    return restore


def unbind(restore: list):
    for mod, attr, val in reversed(restore):
        setattr(mod, attr, val)


class Tracer:
    """Spans of the timed traced pass."""

    def __init__(self):
        self.names = []
        self.name_id = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_names = {}
        self.stack = []  # open span indices
        self.covered = []  # per open span: time its finished children took
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.current_op = -1
        self.restore = []

    def _open(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.covered.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str):
        t = time.perf_counter()
        self.end[idx] = t
        dur = t - self.start[idx]
        self.stack.pop()
        child = self.covered.pop()
        if self.covered:
            self.covered[-1] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1

    @contextlib.contextmanager
    def operation(self, k: int, name: str):
        """Root span of one benchmark operation; its spans carry id ``k``."""
        self.current_op = k
        self.op_names[k] = name
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx, "op")
            self.current_op = -1

    def _spanned(self, name):
        def wrap(func):
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    self._close(idx, name)

            return wrapper

        return wrap

    def install(self):
        self.restore = rebind({name: self._spanned(name)
                               for _, _, name in SPANNED})

    def uninstall(self):
        unbind(self.restore)
        self.restore = []

    def metrics(self) -> dict:
        m = {f"{name}.self_s": self.self_s.get(name, 0.0) for name in SELF_S}
        for name in CALLS:
            m[f"{name}.calls"] = self.calls.get(name, 0)
        return m

    def write_spans(self, path: str) -> int:
        """Write all spans as tab-separated lines; returns the span count."""
        with open(path, "w") as fh:
            for k, name in sorted(self.op_names.items()):
                fh.write(f"# op {k}: {name}\n")
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\n")
        return len(self.start)


class Probe:
    """Counts, problem sizes and peak allocations of the untimed pass."""

    def __init__(self):
        self.reduce_calls = 0
        self.canonical_calls = 0
        self.hashes = array("q", bytes(8 * HASH_SLOTS))
        self.alive = {}  # keeps rewrite systems alive so their ids stay unique
        self.sizes = Counter()
        self.kept = Counter()
        self.ipm = Counter()
        self.peak_mb = defaultdict(float)
        self.restore = []

    def _reduce_word(self, func):
        def wrapper(*args, **kwargs):
            self.reduce_calls += 1
            return func(*args, **kwargs)

        return wrapper

    def _canonical_reduced(self, func):
        def wrapper(word, rw, mode, *args, **kwargs):
            self.alive.setdefault(id(rw), rw)
            # Hashes rather than keys: a set of 10^5 word tuples would slow
            # every garbage collection of the probed program.
            n = self.canonical_calls
            h = hash((word, id(rw), int(mode)))
            if n < len(self.hashes):
                self.hashes[n] = h
            else:  # past the reserve, growth shows in the peaks
                self.hashes.append(h)
            self.canonical_calls = n + 1
            return func(word, rw, mode, *args, **kwargs)

        return wrapper

    def _assemble(self, func):
        def wrapper(*args, **kwargs):
            problem = func(*args, **kwargs)
            cons = args[3] if len(args) > 3 else kwargs["constraints"]
            self.kept["in"] += len(cons)
            self.kept["out"] += len(problem.constraints)
            self.sizes["vars"] += problem.num_vars
            self.sizes["eq_rows"] += len(problem.eq_constraints)
            self.sizes["psd_dim"] += sum(b.size for b in problem.blocks)
            self.sizes["nnz"] += (sum(len(b.var_ids) for b in problem.blocks)
                                  + sum(len(c.terms) for c in problem.constraints))
            return problem

        return wrapper

    def _solve_ipm(self, func):
        def wrapper(*args, **kwargs):
            res = func(*args, **kwargs)
            self.ipm["iterations"] += res.iterations
            self.ipm["not_optimal"] += res.status != "optimal"
            return res

        return wrapper

    def _peak(self, name, inner=None):
        def wrap(func):
            func = inner(func) if inner is not None else func

            def wrapper(*args, **kwargs):
                sampler = MallocPeak()
                try:
                    return func(*args, **kwargs)
                finally:
                    self.peak_mb[name] = max(self.peak_mb[name],
                                             sampler.stop() / 2**20)

            return wrapper

        return wrap

    def install(self):
        self.restore = rebind({
            "ncwords.reduce_word": self._reduce_word,
            "ncwords.canonical_reduced": self._canonical_reduced,
            "momentize.assemble": self._assemble,
            "ipm.solve_ipm": self._peak("ipm.solve_ipm", self._solve_ipm),
            "entdim.build_xi_problem": self._peak("entdim.build_xi_problem"),
        })

    def uninstall(self):
        unbind(self.restore)
        self.restore = []

    def metrics(self) -> dict:
        n = self.canonical_calls
        m = {
            "ncwords.reduce_word.calls": self.reduce_calls,
            "ncwords.canonical_reduced.distinct_ratio":
                len(set(self.hashes[:n])) / n if n else 0.0,
            "momentize.assemble.kept_ratio":
                self.kept["out"] / self.kept["in"] if self.kept["in"] else 0.0,
        }
        for key in ("vars", "eq_rows", "psd_dim", "nnz"):
            m[f"momentize.{key}"] = self.sizes[key]
        m["ipm.iterations"] = self.ipm["iterations"]
        m["ipm.not_optimal"] = self.ipm["not_optimal"]
        for name in PEAK:
            m[f"{name}.peak_mb"] = self.peak_mb.get(name, 0.0)
        return m
