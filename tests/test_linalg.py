import ast
import io
import tokenize
import types
from pathlib import Path

import numpy as np
import pytest

import choimaps
from choimaps import NonHermitianError, block_positivity_oracle, hermitian_eigenvalues, partial_transpose
from choimaps.linalg import RANK_REL, require_hermitian
from lemmas import numeric_rank, phase_circulant


def random_unitary(rng, n=3):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian(rng, n=3):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (h + h.conj().T) / 2


def test_identity_eigenvalues():
    np.testing.assert_allclose(hermitian_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])


def test_circulant_all_minus_one_eigenvalues():
    # constant diagonal 2 with all off-diagonals -1: spectrum {0, 3, 3}
    m = phase_circulant(2.0, 0.0)
    np.testing.assert_allclose(hermitian_eigenvalues(m), [0.0, 3.0, 3.0], atol=1e-12)


def test_circulant_threshold_root_has_zero_eigenvalue():
    m = phase_circulant(np.sqrt(3.0), np.pi / 6)
    assert abs(hermitian_eigenvalues(m)[0]) <= 1e-9


def test_non_hermitian_rejected():
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetrizing_near_the_largest_double():
    m = np.diag([1e308, 0.0, 1.0]).astype(complex)
    m[0, 1], m[1, 0] = 1e308j, -1e308j
    out = require_hermitian(m)
    assert np.isfinite(out).all()
    assert np.array_equal(out, m)
    # on normal entries the result is bit for bit the halved sum
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 9) + 1e-12 * rng.normal(size=(9, 9))
    assert np.array_equal(require_hermitian(h), (h + h.conj().T) / 2)


@pytest.mark.parametrize("call", [hermitian_eigenvalues, block_positivity_oracle])
@pytest.mark.parametrize(
    "m",
    [np.full((9, 9), np.nan), np.diag(np.full(9, np.inf)), np.zeros((2, 3))],
    ids=["nan", "inf", "not_square"],
)
def test_non_finite_or_non_square_is_not_hermitian(call, m):
    # NaN > RESIDUE_ABS is False: the check must reject a NaN defect, not
    # pass it on to an eigensolver that does not converge
    with pytest.raises(NonHermitianError):
        call(m)


def test_hermiticity_defect_edge():
    # a defect of exactly the absolute self-check residue passes, twice it does not
    m = np.eye(3, dtype=complex)
    m[0, 1] = 1e-10
    np.testing.assert_array_equal(require_hermitian(m), (m + m.conj().T) / 2)
    m[0, 1] = 2e-10
    with pytest.raises(NonHermitianError):
        require_hermitian(m)


def test_rank_cut_edge():
    assert numeric_rank(np.diag([1.0, RANK_REL])) == 1
    assert numeric_rank(np.diag([1.0, 2.0 * RANK_REL])) == 2


def _literal_constants(tree: ast.Module) -> dict[int, str]:
    """Line and name of each module-level ``NAME = literal`` assignment."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            try:
                ast.literal_eval(node.value)
            except ValueError:
                continue
            found[node.lineno] = node.targets[0].id
    return found


def test_tolerances_are_named_in_linalg_only():
    # Outside linalg.py a number below 1e-2 may appear in code only as a
    # module-level named constant, and no module but linalg assigns a name of
    # the tolerance policy, so the policy cannot scatter again.
    src = Path(choimaps.__file__).parent
    policy = set(_literal_constants(ast.parse((src / "linalg.py").read_text())).values())
    assert {"INCLUSION_SLACK", "FACE_TOL", "RANK_REL"} <= policy
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        named = _literal_constants(tree)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NUMBER and tok.start[0] not in named:
                if 0 < abs(ast.literal_eval(tok.string)) < 1e-2:
                    found.append(f"{path.name}:{tok.start[0]}: {tok.line.strip()}")
        for node in ast.walk(tree):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            for t in targets:
                name = getattr(t, "id", "")
                if name in policy or name in ("OPTIMAL_TOL", "NOT_OPTIMAL_TOL") or name.startswith("CERTIFIED_"):
                    found.append(f"{path.name}:{node.lineno}: assigns {name}")
    assert found == []


def _einsum_operands(node: ast.Call) -> int:
    """Operand count of an ``einsum`` call: the comma-separated inputs of a
    literal subscript string, otherwise the positional arguments after it."""
    first = node.args[0] if node.args else None
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value.split("->")[0].count(",") + 1
    return max(len(node.args) - 1, 1)


def test_no_einsum_of_three_or_more_operands_in_the_package():
    # numpy runs a multi-operand einsum as one naive loop over every index,
    # unless told to optimize; chained matmuls reach BLAS instead
    src = Path(choimaps.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
        and _einsum_operands(node) >= 3
    ]
    assert found == []


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so a check in src/ must raise.
    src = Path(choimaps.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_caches_are_the_record_and_the_two_tables():
    # one cache per point (its kernel record, which carries both spanning
    # reports) and one per fixed table (the sphere grid and the certificate's
    # subdivision tables); any other cache would hold a second copy of what
    # one of them holds
    src = Path(choimaps.__file__).parent
    cached = sorted(
        f"{path.stem}.{node.name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if any("cache" in ast.unparse(decorator) for decorator in node.decorator_list)
    )
    assert cached == ["positivity._grid", "positivity._subdivision", "spanning._kernel_point"]


#: What a verdict reaches from outside the package: the command line (it
#: certifies the optimal vertices from the second-order space and runs no
#: search), and the two functions the benchmark calls: the subtraction
#: probe of its optimality workload (it alone reaches the grid, the descent,
#: the oracle and the Dinkelbach rounds) and the parametrization it checks
#: its sampler against.
_ROOTS = (
    ("cli", "main"),
    ("optimality", "optimality_probe"),
    ("faces", "boundary_parametrization"),
)


def _definitions(tree: ast.Module) -> tuple[dict[str, list[ast.AST]], list[ast.AST], dict]:
    """The top-level definitions of a module (name -> defining statements),
    its other statements, and its ``from .x import y as z`` bindings
    (z -> (x, y)).  Dunder assignments such as ``__all__`` count as plain
    statements, not as definitions."""
    defs: dict[str, list[ast.AST]] = {}
    statements: list[ast.AST] = []
    bindings = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bindings[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            if names and not all(n.startswith("__") for n in names):
                for name in names:
                    defs.setdefault(name, []).append(node)
                continue
            statements.append(node)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            statements.append(node)
    return defs, statements, bindings


def _reach(roots, statements: bool) -> tuple[dict, set]:
    """The package's modules (stem -> ``_definitions``) and the (module,
    name) definitions reached from ``roots`` (and from every module-level
    statement when ``statements``), through the names each reached
    definition uses, resolved by each module's own ``from .x import y``
    bindings (so ``np.kron`` never reads as a package ``kron``)."""
    src = Path(choimaps.__file__).parent
    modules = {path.stem: _definitions(ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))}

    def resolve(module: str, name: str):
        """The (module, name) of the definition ``name`` in ``module`` refers to, or None."""
        while name not in modules[module][0]:
            if name not in modules[module][2]:
                return None
            module, name = modules[module][2][name]
        return module, name

    reached = set(roots)
    todo = [(module, node) for module, (_, nodes, _) in modules.items() if statements for node in nodes]
    todo += [(module, node) for module, name in roots for node in modules[module][0][name]]
    while todo:
        module, node = todo.pop()
        for used in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}:
            target = resolve(module, used)
            if target is not None and target not in reached:
                reached.add(target)
                todo += [(target[0], d) for d in modules[target[0]][0][target[1]]]
    return modules, reached


def test_every_definition_is_reached_by_a_verdict():
    # Each top-level definition of the package is reached from the command
    # line, from a module-level statement, or from a function the benchmark
    # calls.  The package namespace (``__init__``) is not a root: code that
    # only tests reach belongs in tests/.
    modules, reached = _reach(_ROOTS, statements=True)
    unreached = sorted(
        f"{module}.{name}" for module, (defs, _, _) in modules.items() for name in defs
        if (module, name) not in reached
    )
    assert unreached == [], "reached by no verdict: " + ", ".join(unreached)


def test_every_public_name_is_reached_by_a_verdict():
    # ``choimaps.__all__`` exports, besides its submodules, only definitions
    # a verdict reaches, so a name that only tests use cannot return to it
    # unnoticed.
    modules, reached = _reach(_ROOTS, statements=True)
    bindings = modules["__init__"][2]
    public = [name for name in choimaps.__all__ if not isinstance(getattr(choimaps, name), types.ModuleType)]
    assert sorted(name for name in public if bindings.get(name) not in reached) == []


def test_the_command_line_reaches_no_search_code():
    # ``classify`` certifies the optimal vertices from the exact second-order
    # space, so no command reaches the probe, its grid ratios and rounds, or
    # the oracle's grid and descent.
    modules, reached = _reach([("cli", "main")], statements=False)
    search = [("optimality", name) for name in (
        "optimality_probe", "_dinkelbach", "_ratio_on_grid", "_directions", "_kernel_limit_ratio",
    )] + [("positivity", name) for name in (
        "block_positivity_oracle", "_descend", "_newton_candidates", "_grid", "_distinct_starts",
        "_smallest_eigenvalues",
    )]
    assert all(name in modules[module][0] for module, name in search)
    assert sorted(f"{module}.{name}" for module, name in search if (module, name) in reached) == []


def test_every_module_level_import_is_read():
    # a name a module imports and never reads is a dependency no code has;
    # the package namespace (``__init__``) imports only to export
    src = Path(choimaps.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    assert unread == []


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = random_hermitian(rng)
        ev = hermitian_eigenvalues(m)
        tr = np.trace(m).real
        assert abs(ev.sum() - tr) <= 1e-9 * (1.0 + abs(tr))


def test_eigenvalues_unitarily_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_hermitian(rng)
        u = random_unitary(rng)
        ev1 = hermitian_eigenvalues(m)
        ev2 = hermitian_eigenvalues(u @ m @ u.conj().T)
        np.testing.assert_allclose(ev1, ev2, atol=1e-8)


def test_rank_zero_and_identity():
    assert numeric_rank(np.zeros((9, 9))) == 0
    assert numeric_rank(np.eye(9)) == 9


def test_rank_copositive_boundary_columns():
    # columns are the nine a=0 kernel tensors at b=1: full rank
    b, theta = 1.0, np.pi / 6
    e = np.exp(1j * theta)
    cols = []
    for k in range(3):
        for be in (1.0, -1.0, 1j):
            xi = np.zeros(3, complex)
            eta = np.zeros(3, complex)
            xi[[k, (k + 1) % 3]] = (1.0, be) if k == 0 else (1.0, be)
            # families: (al, be, 0), (be, 0, al), (0, al, be) rotated
            if k == 0:
                xi = np.array([1.0, be, 0.0])
                eta = np.array([1.0, e * np.conj(be) * b, 0.0])
            elif k == 1:
                xi = np.array([be, 0.0, 1.0])
                eta = np.array([e * np.conj(be) * b, 0.0, 1.0])
            else:
                xi = np.array([0.0, 1.0, be])
                eta = np.array([0.0, 1.0, e * np.conj(be) * b])
            cols.append(np.kron(xi, eta))
    assert numeric_rank(np.array(cols).T) == 9


def test_rank_threshold_is_relative():
    assert numeric_rank(np.diag([1e6, 1.0, 1e-1])) == 3
    assert numeric_rank(np.diag([1e9, 1.0, 1.0])) == 1


def test_determinant_surface_kernel_columns():
    # independent reconstruction of the nine surface-case kernel tensors at
    # (a, b, c, theta) = (0.5, 1, 0.25, pi/6); |det| = 4 exactly
    a, b, c, theta = 0.5, 1.0, 0.25, np.pi / 6
    em = np.exp(-1j * theta)
    root = np.sqrt(1 - a)
    b4, c4, sb = b**0.25, c**0.25, np.sqrt(b)
    cols = []
    for al, be in ((1, 1), (1, -1), (1, 1j)):
        trios = [
            ((b4 * al, c4 * be, 0), (np.conj(al) * em * root, np.conj(be) * sb, 0)),
            ((c4 * be, 0, b4 * al), (np.conj(be) * sb, 0, np.conj(al) * em * root)),
            ((0, b4 * al, c4 * be), (0, np.conj(al) * em * root, np.conj(be) * sb)),
        ]
        cols.extend(np.kron(np.array(x), np.array(y)) for x, y in trios)
    assert abs(abs(np.linalg.det(np.array(cols).T)) - 4.0) <= 1e-8


def test_determinant_equals_eigenvalue_product_for_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_hermitian(rng, 3)
        d = np.linalg.det(m).real
        prod = np.prod(hermitian_eigenvalues(m))
        assert abs(d - prod) <= 1e-8 * max(1.0, abs(prod))


def test_partial_transpose_identity_and_products():
    np.testing.assert_allclose(partial_transpose(np.eye(9)), np.eye(9))
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(partial_transpose(np.kron(a, b)), np.kron(a, b.T), atol=1e-12)


def test_partial_transpose_involution():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    np.testing.assert_allclose(partial_transpose(partial_transpose(m)), m, atol=1e-10)


def test_partial_transpose_rank_of_boundary_state():
    from choimaps import MapParams, choi_matrix

    w = choi_matrix(MapParams(np.sqrt(3.0), 1.0, 1.0, np.pi / 6))
    assert numeric_rank(partial_transpose(w)) == 6


def test_kron_rank_multiplicative():
    rng = np.random.default_rng(6)
    for ra, rb in ((1, 2), (2, 2), (3, 1)):
        a = sum(np.outer(rng.normal(size=3), rng.normal(size=3)) for _ in range(ra))
        b = sum(np.outer(rng.normal(size=3), rng.normal(size=3)) for _ in range(rb))
        assert numeric_rank(np.kron(a, b)) == numeric_rank(a) * numeric_rank(b)
