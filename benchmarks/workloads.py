"""The four benchmark workloads: seeded inputs, the ops run on them, and the
expectation each op is checked against.

Every expectation is computed by this file's own numpy code, never by the
package layer under test: index permutations are tensor transpositions of an
index grid, Kronecker products are outer products, and the closed forms come
from the paper.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import signal
import subprocess
import sys
import tempfile
from math import prod

import numpy as np

import tensorperm as tp
from tensorperm import cli, formats
from tracing import Op, Step, run_steps

CLI_TIMEOUT_S = 60


# ----------------------------------------------------------------- oracles

def own_perm(dims, sigma) -> np.ndarray:
    """0-based column of each row's 1 in U: row r of U . v reads v[col[r]]."""
    n = prod(dims)
    return np.arange(n).reshape(dims).transpose([s - 1 for s in sigma]).ravel()


def own_dense(col: np.ndarray) -> np.ndarray:
    n = len(col)
    dense = np.zeros((n, n), dtype=np.int64)
    dense[np.arange(n), col] = 1
    return dense


def own_is_permutation(m: np.ndarray) -> bool:
    """Square, and equal to the permutation matrix of its rows' argmax."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    col = m.argmax(axis=1)
    return np.array_equal(m, own_dense(col)) and len(np.unique(col)) == len(col)


def corrupt(rng, m: np.ndarray) -> np.ndarray:
    """A copy of permutation matrix ``m`` that is not one: one row's 1 moved
    onto another row's column, an extra 1 in a row, or a 1 made a 2."""
    bad = m.copy()
    n = len(m)
    col = m.argmax(axis=1)
    r, r2 = rng.choice(n, 2, replace=False)
    how = int(rng.integers(3))
    if how == 0:
        bad[r, col[r]] = 0
        bad[r, col[r2]] = 1
    elif how == 1:
        bad[r, col[r2]] = 1
    else:
        bad[r, col[r]] = 2
    return bad


def rejects(fn, *args) -> bool:
    """True when ``fn(*args)`` raises ValueError, False when it returns."""
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def own_kron_vector(parts) -> np.ndarray:
    out = parts[0]
    for part in parts[1:]:
        out = np.multiply.outer(out, part).ravel()
    return out


def own_kron_matrix(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        rows, cols = out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        out = np.einsum("ij,kl->ikjl", out, m).reshape(rows, cols)
    return out


def own_closure(n: int, p: int):
    """(closed, witness) of {I, U[n x p], U[p x n]} by composing index arrays.
    The matrix product A . B has its row-r one at column colB[colA[r]]."""
    size = n * p
    elements = [
        (f"U[1x{size}]", np.arange(size)),
        (f"U[{n}x{p}]", own_perm((n, p), (2, 1))),
        (f"U[{p}x{n}]", own_perm((p, n), (2, 1))),
    ]
    members = {col.tobytes() for _, col in elements}
    for name_a, a in elements:
        for name_b, b in elements:
            if b[a].tobytes() not in members:
                return False, f"{name_a} * {name_b}"
    return True, None


def divisor_pairs(order: int) -> list[tuple[int, int]]:
    return [(n, order // n) for n in range(1, order + 1) if order % n == 0]


def own_classify_text(order: int) -> str:
    """Expected stdout of `tensorperm classify --order <order>`."""
    pairs = divisor_pairs(order)
    cols = {pair: own_perm(pair, (2, 1)) for pair in pairs}
    identity = np.arange(order)
    lines = []
    for pair in pairs:
        marks = []
        if np.array_equal(cols[pair], identity):
            marks.append("identity")
        partners = [f"{a}x{b}" for a, b in pairs
                    if (a, b) != pair and np.array_equal(cols[(a, b)], cols[pair])]
        if partners:
            marks.append("= " + " = ".join(partners))
        lines.append(" ".join([f"{pair[0]}x{pair[1]}", *marks]))
    return "\n".join(lines) + "\n"


def decomposition_ok(n: int, table: np.ndarray, tol: float = 1e-12) -> bool:
    """The paper's closed form: c00 = 1/n, diagonal 1/2, zero elsewhere."""
    want = np.eye(n * n, dtype=np.complex128) / 2
    want[0, 0] = 1 / n
    return table.shape == want.shape and bool(np.abs(table - want).max() <= tol)


def decomposition_text_ok(n: int, text: str, tol: float = 1e-9) -> bool:
    """Stdout of `tensorperm decompose --n <n>` read back as numbers."""
    lines = text.splitlines()
    if len(lines) != n * n + 1 or lines[0] != f"n {n}":
        return False
    head, c00 = lines[1].split()
    if head != "c00" or abs(float(c00) - 1 / n) > tol:
        return False
    seen = set()
    for line in lines[2:]:
        a, b, re, im = line.split()
        if a != b or abs(float(re) - 0.5) > tol or abs(float(im)) > tol:
            return False
        seen.add(int(a))
    return seen == set(range(1, n * n))


def basis_ok(n: int, basis, tol: float = 1e-12) -> bool:
    """Hermitian, traceless generators with Tr(g_a g_b) = 2 delta_ab."""
    gens = np.array(basis.generators)
    if gens.shape != (n * n - 1, n, n):
        return False
    hermitian = np.abs(gens - gens.conj().transpose(0, 2, 1)).max() <= tol
    traceless = np.abs(np.trace(gens, axis1=1, axis2=2)).max() <= tol
    gram = np.einsum("aij,bji->ab", gens, gens)
    return bool(hermitian and traceless and np.abs(gram - 2 * np.eye(len(gens))).max() <= tol)


# ----------------------------------------------------------------- inputs

def _primes(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def random_spec(rng, n: int, k: int):
    """Random k-factor dims with product exactly n (every factor >= 2) and a
    random non-identity sigma. Cost depends on n and k, not on the draw."""
    primes = _primes(n)
    rng.shuffle(primes)
    dims = [1] * k
    for i, q in enumerate(primes):
        dims[i if i < k else int(rng.integers(k))] *= q
    identity = tuple(range(1, k + 1))
    sigma = identity
    while sigma == identity:
        sigma = tuple(int(s) + 1 for s in rng.permutation(k))
    return tuple(dims), sigma


def fresh_spec(rng, n: int, k: int, seen: set):
    for _ in range(10000):
        spec = random_spec(rng, n, k)
        if spec not in seen:
            seen.add(spec)
            return spec
    raise RuntimeError(f"no unused {k}-factor spec of order {n} left")


def factor_vectors(rng, dims):
    """Nonzero integer factors, so every Kronecker entry is exact in int64."""
    return [rng.integers(1, 1000, d) * rng.choice((-1, 1), d) for d in dims]


def apply_op(kind, dims, sigma, as_list, label, rng):
    """`apply(TensorPermSpec(dims, sigma), v)` on a fresh Kronecker vector,
    checked against the relocation identity. Traced, it runs as its parts
    TensorPermSpec -> induced_index_perm -> IndexPerm.apply."""
    parts_in = factor_vectors(rng, dims)
    v = own_kron_vector(parts_in)
    want = own_kron_vector([parts_in[s - 1] for s in sigma])
    if as_list:
        v = v.tolist()
    n = len(v)
    flavour = "list" if as_list else "ndarray"
    return Op(
        kind=kind,
        steps=[Step("perm_matrix.apply",
                    lambda c: tp.apply(tp.TensorPermSpec(dims, sigma), v), key="out")],
        parts=[
            Step("perm_matrix.TensorPermSpec", lambda c: tp.TensorPermSpec(dims, sigma), key="spec"),
            Step(f"index_algebra.induced_index_perm.{label}",
                 lambda c: tp.induced_index_perm(c["spec"].dims, c["spec"].sigma), key="perm", size=n),
            Step(f"index_algebra.IndexPerm.apply.{flavour}", lambda c: c["perm"].apply(v),
                 key="out", size=n),
        ],
        check=lambda c: np.array_equal(np.asarray(c["out"]), want),
        spec_key=(dims, sigma),
    )


def _cycle(rng, pattern):
    """Endless stream of the pattern's items, shuffled within each pass, so
    every run has the same mix whatever its length."""
    while True:
        for i in rng.permutation(len(pattern)):
            yield pattern[i]


# ----------------------------------------------------------------- workloads

class Workload:
    """``setup`` makes the inputs and warms up; ``ops`` yields the timed ops."""

    name = ""
    length: int | None = None  # ops in a fixed-length stream; None when timed

    def __init__(self, seed: int, tiny: bool, root: str, work: str) -> None:
        self.rng = np.random.default_rng([seed, sorted(WORKLOADS).index(self.name)])
        self.tiny = tiny
        self.root = root
        self.work = work
        self.seen: set = set()
        self.setup_keys: set = set()

    def setup(self) -> None:
        pass

    def ops(self):
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        """Peak RSS of the process the ops run in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ImplicitCold(Workload):
    """A fixed stream of distinct specs past the dense bound, so every op
    builds its index permutation. Construction cost depends on N and the
    factor count k, not on the dims or sigma the seed draws, so each tier
    fixes both; the median op falls in the middle of the N = 32400 tier and
    the tail (p90 of 99 ops) in the upper quarter of the N = 100800 tier.
    Op j of a tier of c ops sits at a random point of the j-th of c equal
    slices of the stream, so every tier samples the machine evenly across
    the whole run rather than in a few stretches of it; the single
    N = 10^6 op comes last. The stream is fixed-length rather than timed,
    so the memory the program's cache holds, and the peak it reaches on
    that last and largest op, are the same for any seed and any
    implementation speed."""

    name = "implicit-cold"
    TIERS = ((10800, 32, 5), (32400, 32, 3), (100800, 32, 2), (302400, 2, 4), (1000000, 1, 3))
    TINY_TIERS = ((360, 4, 3), (1080, 4, 2))

    def setup(self) -> None:
        tiers = self.TINY_TIERS if self.tiny else self.TIERS
        # Warm up on a fresh spec from each of the three smallest tiers, so
        # that set-up runs the construction the ops run, not only imports.
        for n, _, k in tiers[:3]:
            dims, sigma = fresh_spec(self.rng, n, k, self.seen)
            tp.apply(tp.TensorPermSpec(dims, sigma), np.arange(n))
        keyed = [((j + self.rng.random()) / count, n, fresh_spec(self.rng, n, k, self.seen))
                 for n, count, k in tiers for j in range(count)]
        *head, last = keyed
        self.stream = [(n, spec) for _, n, spec in sorted(head) + [last]]
        self.length = len(self.stream)

    def ops(self):
        for n, (dims, sigma) in self.stream:
            op = apply_op(f"n{n}", dims, sigma, False, "cold", self.rng)
            op.replays = lambda dims=dims, sigma=sigma: self._validation_replay(dims, sigma)
            yield op

    @staticmethod
    def _validation_replay(dims, sigma):
        # IndexPerm validation runs inside induced_index_perm; time it alone
        # on the same permutation, given as the 1-based column list.
        cols = tuple((own_perm(dims, sigma) + 1).tolist())
        return [("replay.IndexPerm", [Step("index_algebra.IndexPerm.init",
                                           lambda c: tp.IndexPerm(cols), size=len(cols))])]


class ImplicitWarm(Workload):
    """A fixed working set built during setup and held by the package's index
    cache; each op applies one spec to a fresh vector. Six specs at
    N = 100800 take ndarray inputs, three times each per pass of 24, and
    three at N = 10800 take list inputs, twice each. Applying a permutation
    to a list of boxed ints is bound by cache misses on the ints, so its time
    swings with whatever else shares the cache: 2x between runs at
    N = 100800 and 1.8x at N = 32400 on a shared host. The small list specs
    keep that swing, and its weight in ops_per_s, down. Apply time also
    depends on each spec's access pattern, so the set is fixed and the seed
    draws only the op order and the vectors."""

    name = "implicit-warm"
    NDARRAY_SPECS = (((280, 360), (2, 1)), ((40, 42, 60), (3, 1, 2)), ((45, 56, 40), (2, 3, 1)),
                     ((15, 16, 20, 21), (4, 3, 2, 1)), ((12, 20, 20, 21), (2, 4, 1, 3)),
                     ((6, 7, 8, 10, 30), (5, 4, 3, 2, 1)))
    LIST_SPECS = (((90, 120), (2, 1)), ((20, 18, 30), (3, 1, 2)), ((3, 4, 5, 9, 20), (3, 5, 1, 4, 2)))
    TINY_NDARRAY_SPECS = (((30, 36), (2, 1)), ((6, 10, 18), (3, 1, 2)), ((2, 3, 4, 5, 9), (5, 4, 3, 2, 1)))
    TINY_LIST_SPECS = (((3, 4, 9, 10), (4, 3, 2, 1)),)

    def setup(self) -> None:
        if self.tiny:
            nd, lists = self.TINY_NDARRAY_SPECS, self.TINY_LIST_SPECS
        else:
            nd, lists = self.NDARRAY_SPECS, self.LIST_SPECS
        self.pattern = [(spec, False) for spec in nd for _ in range(3)]
        per_list_spec = len(nd) // len(lists)  # one list op per three ndarray ops
        self.pattern += [(spec, True) for spec in lists for _ in range(per_list_spec)]
        for dims, sigma in nd + lists:
            spec = tp.TensorPermSpec(dims, sigma)
            tp.apply(spec, np.arange(spec.size))
            tp.apply(spec, list(range(spec.size)))
        self.setup_keys = set(nd + lists)

    def ops(self):
        for (dims, sigma), as_list in _cycle(self.rng, self.pattern):
            yield apply_op("list" if as_list else "ndarray", dims, sigma, as_list, "warm", self.rng)


class DenseChecks(Workload):
    """The paper's checks at dense orders, each kind at a fixed order so that
    its cost does not depend on the seed; the seed draws the specs, factor
    pairs, matrices and classification inputs."""

    name = "dense-checks"
    ORDERS = {"constructors": 1024, "closure": 256, "classify": 1024,
              "conjugation": 1024, "decompose": 8}
    TINY_ORDERS = {"constructors": 24, "closure": 16, "classify": 24,
                   "conjugation": 24, "decompose": 3}
    # Kinds sorted by cost at the seed: constructors, classify, then
    # conjugation with closure-open (about equal), decompose, closure-closed.
    # The counts put the median and every tail percentile inside one kind
    # rather than on a boundary between two.
    PATTERN = ("constructors", "constructors", "classify", "classify", "conjugation",
               "conjugation", "conjugation", "closure-open", "decompose", "decompose",
               "closure-closed", "closure-closed")

    def setup(self) -> None:
        self.orders = self.TINY_ORDERS if self.tiny else self.ORDERS
        self.k_next = {"constructors": 0, "conjugation": 0}
        for kind in ("constructors", "closure-closed", "classify", "conjugation", "decompose"):
            # wrong results and errors are counted by the timed ops, not here
            with contextlib.suppress(Exception):
                run_steps(self._make(kind, self.orders).steps, {})

    def ops(self):
        for kind in _cycle(self.rng, self.PATTERN):
            yield self._make(kind, self.orders)

    def _next_k(self, kind: str, order: int) -> int:
        top = min(5 if kind == "constructors" else 4, len(_primes(order)))
        k = 2 + self.k_next[kind] % (top - 1)
        self.k_next[kind] += 1
        return k

    def _make(self, kind: str, orders) -> Op:
        rng = self.rng
        if kind == "constructors":
            order = orders[kind]
            dims, sigma = random_spec(rng, order, self._next_k(kind, order))
            n, p = divisor_pairs(order)[int(rng.integers(len(divisor_pairs(order))))]
            want = own_dense(own_perm(dims, sigma))
            want_swap = own_dense(own_perm((n, p), (2, 1)))
            return Op(kind, [
                Step("perm_matrix.TensorPermSpec", lambda c: tp.TensorPermSpec(dims, sigma), key="spec"),
                Step("perm_matrix.build_delta", lambda c: tp.build_delta(c["spec"]), key="delta"),
                Step("perm_matrix.build_elementary_sum",
                     lambda c: tp.build_elementary_sum(c["spec"]), key="elem"),
                Step("perm_matrix.build_stride_rule", lambda c: tp.build_stride_rule(n, p), key="stride"),
                Step("perm_matrix.is_permutation_matrix",
                     lambda c: tp.is_permutation_matrix(c["delta"]), key="isperm"),
            ], check=lambda c: (np.array_equal(c["delta"], want) and np.array_equal(c["elem"], want)
                                and np.array_equal(c["stride"], want_swap) and c["isperm"] is True),
                spec_key=(dims, sigma))
        if kind.startswith("closure"):
            order = orders["closure"]
            if kind == "closure-closed":
                n = p = int(round(order ** 0.5))
            else:
                pairs = [(a, b) for a, b in divisor_pairs(order) if a != b and min(a, b) > 1]
                n, p = pairs[int(rng.integers(len(pairs)))]
            closed, witness = own_closure(n, p)
            return Op(kind, [Step("perm_matrix.closure_check", lambda c: tp.closure_check(n, p),
                                  key="report")],
                      check=lambda c: (c["report"].closed, c["report"].witness) == (closed, witness))
        if kind == "classify":
            order = orders[kind]
            pairs = divisor_pairs(order)
            col = own_perm(pairs[int(rng.integers(len(pairs)))], (2, 1))
            if rng.integers(2):
                col = own_perm(pairs[int(rng.integers(len(pairs)))], (2, 1))[col]
            m = own_dense(col)
            bad = corrupt(rng, m)
            bad_is_perm = own_is_permutation(bad)
            want = [pair for pair in pairs if np.array_equal(own_perm(pair, (2, 1)), col)]
            return Op(kind, [
                Step("perm_matrix.is_permutation_matrix", lambda c: tp.is_permutation_matrix(m),
                     key="isperm"),
                Step("perm_matrix.is_permutation_matrix", lambda c: tp.is_permutation_matrix(bad),
                     key="isperm_bad"),
                Step("perm_matrix.classify_tcm", lambda c: tp.classify_tcm(m), key="labels"),
            ], check=lambda c: (c["isperm"] is True and c["isperm_bad"] is bad_is_perm is False
                                and [(x.n, x.p) for x in c["labels"]] == want))
        if kind == "conjugation":
            order = orders[kind]
            dims, sigma = random_spec(rng, order, self._next_k(kind, order))
            mats = [rng.integers(-9, 10, (d, d)) for d in dims]
            want_k = own_kron_matrix(mats)
            col = own_perm(dims, sigma)
            inv = np.argsort(col)
            holds = np.array_equal(want_k[col, :], own_kron_matrix([mats[s - 1] for s in sigma])[:, inv])
            # The identity holds for every list of square integer factors of
            # the spec's sizes, so the input the checker must refuse is a
            # list of the wrong length or with one factor of the wrong size.
            t = int(rng.integers(len(dims)))
            if rng.integers(2):
                wrong = mats[:t] + mats[t + 1:]
            else:
                wrong = [*mats[:t], rng.integers(-9, 10, (dims[t] + 1, dims[t] + 1)), *mats[t + 1:]]
            steps = [Step("perm_matrix.TensorPermSpec", lambda c: tp.TensorPermSpec(dims, sigma), key="spec"),
                     Step("matrix_core.kron", lambda c: tp.kron(mats[0], mats[1]), key="K")]
            for m in mats[2:]:
                steps.append(Step("matrix_core.kron", lambda c, m=m: tp.kron(c["K"], m), key="K"))
            steps.append(Step("perm_matrix.commutation_conjugation_check",
                              lambda c: tp.commutation_conjugation_check(c["spec"], mats), key="holds"))
            steps.append(Step("perm_matrix.commutation_conjugation_check.reject",
                              lambda c: rejects(tp.commutation_conjugation_check, c["spec"], wrong),
                              key="rejected"))
            return Op(kind, steps, spec_key=(dims, sigma),
                      check=lambda c: (np.array_equal(c["K"], want_k) and c["holds"] is holds and holds
                                       and c["rejected"] is True))
        n = orders["decompose"]
        return Op(kind, [
            Step("gellmann.generalized_gellmann", lambda c: tp.generalized_gellmann(n), key="basis"),
            Step("gellmann.decompose_swap", lambda c: tp.decompose_swap(n), key="dec"),
        ], check=lambda c: basis_ok(n, c["basis"]) and decomposition_ok(n, c["dec"].table))


class CliRoundtrip(Workload):
    """Real `python -m tensorperm` invocations, one at a time. Each gen or
    apply op uses a spec not seen before in the run, as a fresh process sees
    every spec cold."""

    name = "cli-roundtrip"
    SIZES = {"perm": 10800, "mm": 360, "apply": 10800, "verify": 48, "classify": 360, "decompose": 5}
    TINY_SIZES = {"perm": 360, "mm": 24, "apply": 360, "verify": 12, "classify": 24, "decompose": 3}
    # apply and classify cost the most at the seed and run twice per pass, so
    # the tail percentile (p75 or p90 at this run length) falls inside their
    # share rather than on a boundary; the median falls on gen-perm.
    PATTERN = ("gen-perm", "gen-mm", "apply", "apply", "verify", "classify", "classify",
               "decompose", "capacity")

    def setup(self) -> None:
        self.sizes = self.TINY_SIZES if self.tiny else self.SIZES
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.k_next = 0
        self.child_peak_kib = 0
        signal.signal(signal.SIGALRM, _cli_timeout)
        self.classify_text = own_classify_text(self.sizes["classify"])
        self._run(["gen", "--dims", "2,3"])  # warm-up; the timed ops check the CLI's output

    def peak_rss_kib(self) -> int:
        """Peak RSS of the largest CLI child."""
        return self.child_peak_kib

    def _run(self, argv, python_args=("-m", "tensorperm")):
        """Run a Python child to completion. Its output goes through files,
        so that it can be reaped with wait4, which gives its own peak RSS
        apart from that of any other child of this process."""
        with tempfile.TemporaryFile("w+", dir=self.work) as out, \
                tempfile.TemporaryFile("w+", dir=self.work) as err:
            child = subprocess.Popen([sys.executable, *python_args, *argv], stdout=out, stderr=err,
                                     env=self.env, cwd=self.root)
            signal.alarm(CLI_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except TimeoutError:
                child.kill()
                child.wait()
                raise
            finally:
                signal.alarm(0)
            child.returncode = os.waitstatus_to_exitcode(status)
            self.child_peak_kib = max(self.child_peak_kib, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return subprocess.CompletedProcess(child.args, child.returncode, out.read(), err.read())

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def ops(self):
        for kind in _cycle(self.rng, self.PATTERN):
            yield self._make(kind)

    def _spec(self, n: int):
        k = 2 + self.k_next % min(4, len(_primes(n)) - 1)
        self.k_next += 1
        dims, sigma = fresh_spec(self.rng, n, k, self.seen)
        flags = ["--dims", ",".join(map(str, dims)), "--sigma", ",".join(map(str, sigma))]
        return dims, sigma, flags

    def _make(self, kind: str) -> Op:
        sizes = self.sizes
        parts: list[Step] = []
        readback: list[Step] = []
        want_exit, want_stdout, check_extra = 0, "", None
        spec_key = None
        if kind in ("gen-perm", "gen-mm"):
            fmt = kind[4:]
            dims, sigma, flags = self._spec(sizes[fmt])
            spec_key = (dims, sigma)
            col = own_perm(dims, sigma)
            out = self._path(f"gen.{fmt}")
            argv = ["gen", *flags, "--format", fmt, "--output", out]
            replay_argv = ["gen", *flags, "--format", fmt, "--output", self._path(f"replay.{fmt}")]
            spec_step = Step("perm_matrix.TensorPermSpec", lambda c: tp.TensorPermSpec(dims, sigma), key="spec")
            if fmt == "perm":
                parse = Step("formats.parse_perm", lambda c: formats.parse_perm(_read(out)),
                             key="parsed", size=lambda c: os.path.getsize(out))
                check_extra = lambda c: np.array_equal(np.asarray(c["parsed"].col_of_row), col + 1)
                parts = [spec_step,
                         Step("index_algebra.induced_index_perm.warm",
                              lambda c: tp.induced_index_perm(c["spec"].dims, c["spec"].sigma),
                              key="perm", size=len(col)),
                         Step("formats.write_perm", lambda c: formats.write_perm(c["perm"]),
                              key="text", size=lambda c: len(c["text"]))]
            else:
                parse = Step("formats.parse_matrix_market",
                             lambda c: formats.parse_matrix_market(_read(out)),
                             key="parsed", size=lambda c: os.path.getsize(out))
                want = own_dense(col)
                check_extra = lambda c: np.array_equal(c["parsed"], want)
                parts = [spec_step,
                         Step("perm_matrix.build_delta", lambda c: tp.build_delta(c["spec"]), key="dense"),
                         Step("formats.write_matrix_market",
                              lambda c: formats.write_matrix_market(c["dense"]),
                              key="text", size=lambda c: len(c["text"]))]
            readback = [parse]
        elif kind == "apply":
            dims, sigma, flags = self._spec(sizes["apply"])
            spec_key = (dims, sigma)
            factors = factor_vectors(self.rng, dims)
            values = own_kron_vector(factors).tolist()
            want = own_kron_vector([factors[s - 1] for s in sigma])
            vec = self._path("vector.txt")
            with open(vec, "w", encoding="ascii") as fh:
                fh.write("\n".join(map(str, values)) + "\n")
            argv = replay_argv = ["apply", *flags, "--input", vec]
            want_stdout = "\n".join(map(str, want.tolist())) + "\n"
            parts = [Step("perm_matrix.TensorPermSpec", lambda c: tp.TensorPermSpec(dims, sigma), key="spec"),
                     Step("index_algebra.induced_index_perm.warm",
                          lambda c: tp.induced_index_perm(c["spec"].dims, c["spec"].sigma),
                          key="perm", size=len(values)),
                     Step("index_algebra.IndexPerm.apply.list", lambda c: c["perm"].apply(values),
                          key="out", size=len(values))]
        elif kind == "verify":
            dims, sigma, flags = self._spec(sizes["verify"])
            spec_key = (dims, sigma)
            argv = replay_argv = ["verify", *flags]
            want_stdout = None
            check_extra = lambda c: (c["proc"].stdout != "" and all(
                line.startswith("PASS ") for line in c["proc"].stdout.splitlines()))
        elif kind == "classify":
            argv = replay_argv = ["classify", "--order", str(sizes["classify"])]
            want_stdout = self.classify_text
        elif kind == "decompose":
            n = sizes["decompose"]
            argv = replay_argv = ["decompose", "--n", str(n)]
            want_stdout = None
            check_extra = lambda c: decomposition_text_ok(n, c["proc"].stdout)
            parts = [Step("gellmann.decompose_swap", lambda c: tp.decompose_swap(n), key="dec"),
                     Step("formats.write_decomposition",
                          lambda c: formats.write_decomposition(c["dec"], tol=1e-10),
                          key="text", size=lambda c: len(c["text"]))]
        else:  # capacity: a dense format past the dense bound must exit 3
            argv = replay_argv = ["gen", "--dims", "65,64", "--format", "dense"]
            want_exit = 3
        cmd = argv[0]
        # gen's formats differ in cost by 4x or more, so the in-process
        # replay is named by format
        main_name = {"gen-perm": "gen.perm", "gen-mm": "gen.mm", "capacity": "gen.dense"}.get(kind, cmd)

        def check(c):
            proc = c["proc"]
            if proc.returncode != want_exit:
                return False
            if want_stdout is not None and proc.stdout != want_stdout:
                return False
            return check_extra is None or bool(check_extra(c))

        def replays():
            out = [("replay.startup", [Step("cli.startup",
                                            lambda c: self._run([], ("-c", "import tensorperm")))]),
                   ("replay.main", [Step(f"cli.main.{main_name}", lambda c: self._in_process(replay_argv))])]
            return out + ([("replay.parts", parts)] if parts else [])

        return Op(kind, [Step(f"cli.subprocess.{cmd}", lambda c: self._run(argv), key="proc"), *readback],
                  check=check, replays=replays, spec_key=spec_key, expected_exit=want_exit)


def _cli_timeout(signum, frame):
    raise TimeoutError(f"CLI run took over {CLI_TIMEOUT_S} s")


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (ImplicitCold, ImplicitWarm, DenseChecks, CliRoundtrip)}
