#!/usr/bin/env python3
"""What the product runs: every ``src/repro`` function two passes enter (``sys.setprofile``).

    python3 scripts/census.py    # ~10 min; exit 1 if an entry is unexplained

Product pass: every ``scripts/gates.py`` row but the two pytest ones (``tier1`` and
``claims``), each figure at a small size,
the listings, the examples, ``repro report``, the benchmark self-test. Tier-1 pass: the
tests. A ``sitecustomize`` on ``PYTHONPATH`` profiles every process; a forked pool worker
leaves through ``os._exit``, past ``atexit``, so it writes from a ``Finalize``. Printed:
the ``module:qualname`` sets the product runs, only the tests run, and nothing runs
(class bodies, comprehensions and declarations left out); each test-only or never-run
entry must match a pattern of ``census_keep.KEEP``.
"""

import ast
import fnmatch
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from census_keep import KEEP

REPO = Path(__file__).resolve().parent.parent
SMALL = ("--nodes", "40", "--rounds", "20", "--latency", "constant")
#: Arguments that keep an example small (the sizes ``tests/test_examples.py`` runs).
EXAMPLE_ARGS = {"gossip_dissemination.py": ("60", "25"), "protocol_comparison.py": ("60", "24")}

HOOK = '''\
import atexit, multiprocessing.util, os, sys
_seen = {}
def _profile(frame, event, arg):
    if event == "call" and id(frame.f_code) not in _seen:
        _seen[id(frame.f_code)] = frame.f_code  # holding the code keeps its id unique
def _dump():
    sys.setprofile(None)
    root = os.environ["CENSUS_ROOT"]
    lines = {f"{c.co_filename}\\t{c.co_qualname}\\n" for c in list(_seen.values())
             if c.co_filename.startswith(root)}
    with open(os.path.join(os.environ["CENSUS_DIR"], f"{os.getpid()}.txt"), "a",
              encoding="utf-8") as out:
        out.writelines(sorted(lines))
def _forked(_):
    _seen.clear()
    multiprocessing.util.Finalize(None, _dump, exitpriority=100)
atexit.register(_dump)
multiprocessing.util.register_after_fork(_dump, _forked)
sys.setprofile(_profile)
'''


def product_commands() -> List[Tuple[str, ...]]:
    sys.path[:0] = [str(REPO / "scripts"), str(REPO / "src")]
    from gates import GATES
    from repro.experiments.figures import FIGURES

    py, repro = sys.executable, (sys.executable, "-m", "repro")
    return [
        (py, "scripts/gates.py", *(gate.name for gate in GATES
                                   if gate.name not in ("tier1", "claims"))),
        *[(*repro, "run", name, *SMALL) for name in sorted(FIGURES)],
        (*repro, "run", "list"), (*repro, "matrix", "--list"),
        *[(py, f"examples/{path.name}", *EXAMPLE_ARGS.get(path.name, ()))
          for path in sorted((REPO / "examples").glob("*.py"))],
        (*repro, "report", "artifacts/baseline/matrix_aggregate.json"),
        (py, "benchmarks/suite/run.py", "--selftest"),
    ]


def _declaration(function: ast.AST) -> bool:
    """Abstract, or a body of only a docstring, ``pass`` or ``raise NotImplementedError``."""
    if any("abstractmethod" in ast.unparse(d) for d in function.decorator_list):
        return True
    body = [s for s in function.body
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    return all(isinstance(s, ast.Pass) or (isinstance(s, ast.Raise) and s.exc is not None
               and "NotImplementedError" in ast.unparse(s.exc)) for s in body)


def universe(root: Path) -> Set[str]:
    """Every ``module:qualname`` under ``root``: modules and the functions they define."""
    names: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        module = _module(root, path)
        names.add(f"{module}:<module>")
        stack: List[Tuple[ast.AST, str]] = [(ast.parse(path.read_text("utf-8")), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    name = prefix + getattr(child, "name", "<lambda>")
                    if isinstance(child, ast.Lambda) or not _declaration(child):
                        names.add(f"{module}:{name}")
                    stack.append((child, f"{name}.<locals>."))
                else:
                    stack.append((child, prefix))
    return names


def _module(root: Path, path: Path) -> str:
    module = Path(path).resolve().relative_to(root.resolve().parent).with_suffix("")
    return ".".join(module.parts[:-1] if module.name == "__init__" else module.parts)


def run_pass(root: Path, commands: Iterable[Sequence[str]], cwd: Path) -> Set[str]:
    """Run ``commands`` under the hook; -> the ``module:qualname`` they entered."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        (records := Path(tmp, "records")).mkdir()
        Path(tmp, "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        path = [tmp, str(root.resolve().parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, CENSUS_DIR=str(records), CENSUS_ROOT=str(root.resolve()),
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        for argv in commands:
            print("+ " + " ".join(argv), file=sys.stderr, flush=True)
            status = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL).returncode
            if status:
                print(f"  exit status {status}", file=sys.stderr, flush=True)
        lines = [line.split("\t") for record in records.iterdir()
                 for line in record.read_text(encoding="utf-8").splitlines()]
    return {f"{_module(root, Path(filename))}:{qualname}" for filename, qualname in lines}


def census(root: Path, product: Iterable[Sequence[str]], tier1: Iterable[Sequence[str]],
           cwd: Path) -> Dict[str, Set[str]]:
    """The three sets: what ``product`` runs, what only ``tier1`` runs, what neither."""
    everything = universe(root)
    ran = run_pass(root, product, cwd) & everything
    tested = run_pass(root, tier1, cwd) & everything
    return {"product-run": ran, "test-only": tested - ran, "never-run": everything - ran - tested}


def main() -> int:
    tier1 = [(sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider")]
    sets = census(REPO / "src" / "repro", product_commands(), tier1, REPO)
    patterns = [pattern for names in KEEP.values() for pattern in names.split()]
    kept = sorted(sets["test-only"] | sets["never-run"])
    sets["unexplained"] = {n for n in kept if not any(fnmatch.fnmatchcase(n, p) for p in patterns)}
    sets["stale keep"] = {p for p in patterns if not fnmatch.filter(kept, p)}
    for label, names in sets.items():
        print(f"== {label}: {len(names)}")
        print("".join(f"{name}\n" for name in sorted(names)), end="")
    return 1 if sets["unexplained"] or sets["stale keep"] else 0


if __name__ == "__main__":
    sys.exit(main())
