import ast
import importlib
import inspect
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqc1sim import shots_required
from dqc1sim.cli import main as cli_main

from helpers import package_env, read_sweep_csv

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
LIBRARY = sorted((ROOT / "src" / "dqc1sim").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
# Scripts that only rewrite files under tests/: test tooling, like the tests.
TEST_TOOLING = {"make_cli_transcripts.py"}
# Where the program reaches the library: the package itself, the scripts
# other than test tooling, and the benchmark. Tests do not count.
PROGRAM = [*LIBRARY, *(p for p in SCRIPTS if p.name not in TEST_TOOLING), *BENCH]
MODULES = {"dqc1sim", *(p.stem for p in LIBRARY)}
ORACLES = ROOT / "tests" / "reference_oracles.py"
REPRODUCTIONS = [p for p in SCRIPTS if p.name.startswith("reproduce_")]


def _run_script(name: str, outdir: Path, *flags: str) -> str:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), str(outdir), *flags],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def _cli_sweep(path: Path, *flags: str) -> bytes:
    """The --out file of `dqc1sim sweep` over the scripts' grid and seed."""
    assert cli_main(["sweep", "--theta-min", repr(-np.pi), "--theta-max", repr(np.pi),
                     "--steps", "41", "--seed", "2026", *flags, "--out", str(path)]) == 0
    return path.read_bytes()


def test_reproduce_trace_curves(tmp_path):
    stdout = _run_script("reproduce_trace_curves.py", tmp_path)
    chi2_lines = re.findall(r"alpha=(1\.00|0\.58) (re|im): shots=\d+ reduced chi2=\d+\.\d\d "
                            r"over 41 points", stdout)
    assert chi2_lines == [("1.00", "re"), ("1.00", "im"), ("0.58", "re"), ("0.58", "im")]
    for alpha in (1.0, 0.58):
        path = tmp_path / f"trace_alpha_{alpha:.2f}.csv"
        assert len(read_sweep_csv(path)[2]) == 41
        shots = shots_required(0.1, 0.05, alpha)
        assert path.read_bytes() == _cli_sweep(
            tmp_path / "cli.csv", "--alpha", repr(alpha), "--shots", str(shots),
            "--outputs", "trace")


@pytest.mark.parametrize("flags", [(), ("--tomo",)], ids=["exact", "tomo"])
def test_reproduce_discord_tangle(flags, tmp_path):
    stdout = _run_script("reproduce_discord_tangle.py", tmp_path, *flags)
    assert "max tangle over sweep" in stdout and "discord peak" in stdout
    assert ("tomographic discord deviation" in stdout) == bool(flags)
    path = tmp_path / "discord_tangle_alpha_0.997.csv"
    _, columns, rows = read_sweep_csv(path)
    assert len(rows) == 41
    assert ("tomo_discord_rc" in columns) == bool(flags)
    outputs = "trace,discord,tangle" + (",tomo" if flags else "")
    assert path.read_bytes() == _cli_sweep(tmp_path / "cli.csv", "--alpha", "0.997",
                                           "--outputs", outputs)


def _private_library_names(tree: ast.Module) -> list[str]:
    """The _-prefixed names a file takes from dqc1sim: imported with
    ``from dqc1sim... import _name`` or, inside the package, ``from .qmath
    import _name`` (reported as ``dqc1sim.qmath._name``), or read off a
    dqc1sim module, as in ``qmath._name``, ``dqc1sim.qmath._name`` or
    ``getattr(qmath, "_name")``, where the module may come from ``from .
    import qmath``."""
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "dqc1sim" for alias in node.names
                        if alias.name.partition(".")[0] == "dqc1sim"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("dqc1sim")):
            module = node.module or ""
            if node.level:  # the package has no subpackages
                module = f"dqc1sim.{module}".rstrip(".")
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{module}.{alias.name}")
                elif alias.name in MODULES:
                    modules.add(alias.asname or alias.name)

    def is_module(node) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in MODULES and is_module(node.value)
        return isinstance(node, ast.Name) and node.id in modules

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and is_module(node.value):
            private.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and is_module(node.args[0])
              and str(getattr(node.args[1], "value", "")).startswith("_")):
            private.append(ast.unparse(node))
    return private


@pytest.mark.parametrize("script", [*SCRIPTS, *BENCH], ids=lambda p: p.name)
def test_scripts_import_no_private_names(script):
    private = _private_library_names(ast.parse(script.read_text(), filename=str(script)))
    assert not private, f"{script.name} reaches private names {private}"


@pytest.mark.parametrize("source, found", [
    ("from dqc1sim.qmath import _trusted_state", ["dqc1sim.qmath._trusted_state"]),
    ("from dqc1sim import qmath\nqmath._trusted_state(m, (1,))", ["qmath._trusted_state"]),
    ("import dqc1sim.correlations as c\nc._bloch_direction(n)", ["c._bloch_direction"]),
    ("import dqc1sim.qmath\ndqc1sim.qmath._qubit_dims((1,))", ["dqc1sim.qmath._qubit_dims"]),
    ("from dqc1sim import clifford\ngetattr(clifford, '_GATES')",
     ["getattr(clifford, '_GATES')"]),
    ("from dqc1sim import qmath as q\nq.PAULIS\nrng._bit_generator\nnp._core", []),
    ("from .qmath import _trusted_state, pure_state", ["dqc1sim.qmath._trusted_state"]),
    ("from . import _version", ["dqc1sim._version"]),
    ("from . import correlations\ncorrelations._entropies(rho)", ["correlations._entropies"]),
    ("from . import correlations as c\ngetattr(c, '_PAULIS')", ["getattr(c, '_PAULIS')"]),
    ("from .correlations import discords\nfrom . import qmath\nqmath.PAULIS", []),
])
def test_private_name_finder(source, found):
    assert _private_library_names(ast.parse(source)) == found


def test_oracles_import_only_numpy_and_the_standard_library():
    """The shared oracles stay independent of what they check: nothing from
    dqc1sim, nor from the test helpers, which build dqc1sim objects. A
    relative import counts as its leading dots, which no module matches."""
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    allowed = {"numpy", *sys.stdlib_module_names}
    foreign = [name for name in imported if name.partition(".")[0] not in allowed]
    assert not foreign, f"reference_oracles.py imports {foreign}"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_scripts_define_no_oracle_of_their_own(script):
    """A script takes its oracles from tests/reference_oracles.py, the copy
    the tests check, and keeps none of its own."""
    tree = ast.parse(script.read_text(), filename=str(script))
    own = [node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
           and (node.name.startswith("oracle_") or node.name == "entropy_bits")]
    assert not own, f"{script.name} defines {own}"


@pytest.mark.parametrize("script", REPRODUCTIONS, ids=lambda p: p.name)
def test_reproductions_take_only_main_from_the_cli(script):
    """A reproduction script runs `dqc1sim sweep` through the CLI's main and
    reads back the CSV it writes, so its files are the command's by
    construction. It takes no other name from the CLI module."""
    tree = ast.parse(script.read_text(), filename=str(script))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    from_cli = [name for name in imported
                if name == "dqc1sim.cli" or name.startswith("dqc1sim.cli.")]
    assert from_cli == ["dqc1sim.cli.main"], f"{script.name} takes {from_cli} from the CLI"


# The one test module that imports the benchmark: it catches API drift
# between perfbench/ and the library.
BENCH_IMPORTER = "test_benchmark_pass.py"


def _benchmark_imports(tree: ast.Module) -> list[str]:
    """What in tree reaches perfbench: an import of a module named as one
    under perfbench/ (by import statement, importlib.import_module or
    __import__ with a literal name), and a change to sys.path (an insert,
    append or extend call, an assignment or pytest's syspath_prepend) whose
    value mentions "perfbench", directly or through a module-level name."""
    names = {node.targets[0].id: node.value for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}

    def mentions(node, seen=()) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and "perfbench" in str(sub.value):
                return True
            if isinstance(sub, ast.Name) and sub.id in names and sub.id not in seen:
                if mentions(names[sub.id], (*seen, sub.id)):
                    return True
        return False

    def is_sys_path(node) -> bool:
        while isinstance(node, ast.Subscript):
            node = node.value
        return ast.unparse(node) == "sys.path"

    bench = {p.stem for p in BENCH}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.partition(".")[0] in bench]
        elif isinstance(node, ast.ImportFrom) and not node.level and (
                (node.module or "").partition(".")[0] in bench):
            found.append(node.module)
        elif isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if (func in ("importlib.import_module", "import_module", "__import__") and node.args
                    and str(getattr(node.args[0], "value", "")).partition(".")[0] in bench):
                found.append(ast.unparse(node))
            elif isinstance(node.func, ast.Attribute) and mentions(node) and (
                    node.func.attr == "syspath_prepend" or is_sys_path(node.func.value)
                    and node.func.attr in ("insert", "append", "extend")):
                found.append(ast.unparse(node))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(is_sys_path(t) for t in targets) and mentions(node.value):
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("source, found", [
    ("import workloads\nfrom oracles import x\nimport catalog as c", ["workloads", "oracles", "catalog"]),
    ("from spans import trace\nimport large_register, run", ["spans", "large_register", "run"]),
    ("importlib.import_module('workloads')", ["importlib.import_module('workloads')"]),
    ("__import__('large_register')", ["__import__('large_register')"]),
    ("B = ROOT / 'perfbench'\nsys.path.insert(0, str(B))", ["sys.path.insert(0, str(B))"]),
    ("sys.path.append('perfbench')", ["sys.path.append('perfbench')"]),
    ("sys.path[:0] = [str(ROOT / 'perfbench')]", ["sys.path[:0] = [str(ROOT / 'perfbench')]"]),
    ("sys.path += ['perfbench/']", ["sys.path += ['perfbench/']"]),
    ("monkeypatch.syspath_prepend('perfbench')", ["monkeypatch.syspath_prepend('perfbench')"]),
    ("import reference_oracles, precision_oracles\nfrom . import oracles\n"
     "sys.path.insert(0, str(ROOT / 'src'))\nBENCH = ROOT / 'perfbench'\n"
     "importlib.import_module('dqc1sim.cli')", []),
])
def test_benchmark_import_finder(source, found):
    assert _benchmark_imports(ast.parse(source)) == found


@pytest.mark.parametrize("module", [
    *(p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != BENCH_IMPORTER),
    *(p for p in SCRIPTS if p.name in TEST_TOOLING)], ids=lambda p: p.name)
def test_only_the_benchmark_pass_imports_the_benchmark(module):
    """The transcripts and the other tests run without perfbench, so that a
    benchmark change cannot move them; one module exists to import it."""
    found = _benchmark_imports(ast.parse(module.read_text(), filename=str(module)))
    assert not found, f"{module.name} reaches perfbench: {found}"


@pytest.mark.parametrize("damage", ["edited", "missing"])
def test_make_cli_transcripts_refuses_a_changed_input(damage, tmp_path):
    """On a copy of the transcripts, an input that no longer matches its
    recorded SHA-256 makes the script exit 1 naming the file, and it
    writes nothing."""
    for part in ("scripts/make_cli_transcripts.py", "tests/cli_transcripts.py"):
        (tmp_path / part).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / part, tmp_path / part)
    transcripts = tmp_path / "tests" / "transcripts"
    shutil.copytree(ROOT / "tests" / "transcripts", transcripts)
    rank2 = transcripts / "inputs" / "rank2.json"
    if damage == "edited":
        rank2.write_bytes(rank2.read_bytes().replace(b"0", b"1", 1))
    else:
        rank2.unlink()
    before = {p: p.read_bytes() for p in transcripts.rglob("*") if p.is_file()}
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "make_cli_transcripts.py")],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == "" and str(rank2) in proc.stderr
    assert {p: p.read_bytes() for p in transcripts.rglob("*") if p.is_file()} == before


def test_no_module_shares_a_name_with_the_benchmarks():
    """The benchmark's modules import each other by bare name. In one pytest
    session over tests and perfbench, a module under tests/ or scripts/
    named as one under perfbench/ would clash with it: whichever is
    imported first would serve both suites."""
    ours = {p.stem for folder in ("tests", "scripts") for p in (ROOT / folder).glob("*.py")}
    shared = sorted(ours & {p.stem for p in BENCH})
    assert not shared, f"modules named as in perfbench/: {shared}"


# The one private name the package's modules share: the constructor that
# builders of states valid by construction use to skip DensityMatrix's
# checks (see the qmath module docstring).
PACKAGE_INTERNAL = {"dqc1sim.qmath._trusted_state"}


@pytest.mark.parametrize("module", LIBRARY, ids=lambda p: p.name)
def test_library_modules_read_no_other_private_names(module):
    private = _private_library_names(ast.parse(module.read_text(), filename=str(module)))
    assert not set(private) - PACKAGE_INTERNAL, f"{module.name} reaches private names {private}"


def _bool_checks(tree: ast.Module) -> list[str]:
    """The function around each isinstance(..., bool) call in tree, the
    innermost one by name ("" at module level)."""
    owner = {}
    for node in ast.walk(tree):  # breadth first, so an inner def overwrites
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((inner, node.name) for inner in ast.walk(node))
    return [owner.get(node, "") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))]


@pytest.mark.parametrize("source, found", [
    ("def f(x):\n    return isinstance(x, bool)", ["f"]),
    ("isinstance(x, (int, bool))", [""]),
    ("def f(x):\n    def g():\n        return isinstance(x, bool)\n    return g", ["g"]),
    ("class C:\n    def m(self):\n        return not isinstance(self.n, bool)", ["m"]),
    ("isinstance(x, (int, np.integer))\nisinstance(x, np.bool_)\nbool(x)", []),
])
def test_bool_check_finder(source, found):
    assert _bool_checks(ast.parse(source)) == found


def test_only_check_integer_tells_a_bool_from_an_integer():
    """True == 1, so an integer or real rule that forgets bools reads True
    as 1; each rule is written once, in qmath.check_integer and
    qmath.check_range, and every integer or real input calls one of them."""
    found = [f"{module.stem}.{name}" for module in LIBRARY
             for name in _bool_checks(ast.parse(module.read_text(), filename=str(module)))]
    assert set(found) <= {"qmath.check_integer", "qmath.check_range"}, (
        f"bool checks outside check_integer and check_range: {found}")


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _references(tree: ast.Module, own: set[str]) -> set[str]:
    """Library names a file reaches: a bare name that the file imports from
    dqc1sim or, for a library module, defines itself (``own``), and an
    attribute of a dqc1sim module such as ``clifford.propagate`` or
    ``dqc1sim.discord``. A script's or the benchmark's own function that
    shares a library name does not reach the library's; imports, strings
    and docstrings are not references either."""
    bare = {name: name for name in own}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "dqc1sim"):
            bare.update((alias.asname or alias.name, alias.name) for alias in node.names)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bare:
                refs.add(bare[node.id])
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute) and base.attr not in MODULES:
                base = base.value
            tail = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            if tail in MODULES:
                refs.add(node.attr)
    return refs


def _public_members(tree: ast.Module) -> list[str]:
    """Public methods and properties of the module's public classes."""
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def test_library_carries_no_test_only_names():
    """Every public name and every public class member in the library is
    reached from the program. A member counts as reached by any attribute
    access of its name in the program, whatever the object."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PROGRAM}
    refs, attributes = set(), set()
    for path, tree in trees.items():
        own = set(_public_definitions(tree)) if path in LIBRARY else set()
        refs |= _references(tree, own)
        attributes |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name in _public_definitions(trees[path])
        if name not in refs
    ]
    unused += [
        f"{path.stem}.{member}"
        for path in LIBRARY
        for member in _public_members(trees[path])
        if member.partition(".")[2] not in attributes
    ]
    assert not unused, f"public names only tests reach: {unused}"


def _library_callables() -> dict[str, set]:
    """The functions and classes that the dqc1sim modules define, by name
    (__main__, which runs the CLI when imported, aside)."""
    found = {}
    for stem in sorted(MODULES - {"__main__", "__init__"}):
        module = importlib.import_module(stem if stem == "dqc1sim" else f"dqc1sim.{stem}")
        for name, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", "").startswith("dqc1sim"):
                found.setdefault(name, set()).add(obj)
    return found


def test_readme_calls_name_the_parameters():
    """A call such as `stack_tangle(entries)` in README.md whose arguments
    are all names and whose name is a dqc1sim function or class names that
    callable's leading parameters, in order. A literal argument, as in
    `z_theta(0.5)`, is an example value and is not checked."""
    callables = _library_callables()
    text = (ROOT / "README.md").read_text()
    checked, wrong = 0, []
    for match in re.finditer(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", text):
        name = match.group(1).rpartition(".")[2]
        args = [a.strip() for a in match.group(2).split(",")]
        if name not in callables or not all(a.isidentifier() for a in args):
            continue
        checked += 1
        for obj in callables[name]:
            params = list(inspect.signature(obj).parameters)
            if args != params[:len(args)]:
                wrong.append(f"{' '.join(match.group(0).split())}: parameters {params}")
    assert checked >= 10, f"only {checked} README calls found"
    assert not wrong, f"README calls that do not name the parameters: {wrong}"
