"""Every parameter of a function in src/slapx is read by its body, apart
from the listed ones, each kept for a stated reason."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slapx"

ALLOWED = {
    "protocol.Authority.enroll:delegable":
        "perfbench calls enroll(..., delegable=True)",
    "protocol.NeighborDevice.__init__:sk":
        "perfbench calls NeighborDevice(view, nd_sk, nd_cred, rng)",
    "protocol.LocationProof.encode:params":
        "perfbench calls proof.encode(params)",
    "simnet._spawn_bypass_attackers:rng":
        "shares the signature of the _ATTACKERS table's spawners",
    "simnet._spawn_precompute_attackers:rng":
        "shares the signature of the _ATTACKERS table's spawners",
}


def unread_params(path: Path) -> set[str]:
    """'module.Qual.name:param' for each parameter, other than self and
    cls, that no expression in the function's body reads."""
    found = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args,
                                          *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None]
                read = set()
                for n in (n for stmt in child.body for n in ast.walk(stmt)):
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                        read.add(n.id)
                    elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name):
                        read.add(n.target.id)
                name = ".".join(qual + [child.name])
                found.update(f"{name}:{p}" for p in params
                             if p not in read and p not in ("self", "cls"))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, qual + [child.name])
            else:
                visit(child, qual)

    visit(ast.parse(path.read_text()), [path.stem])
    return found


def test_every_parameter_is_read():
    found = set().union(*(unread_params(p) for p in sorted(SRC.glob("*.py"))))
    assert found - set(ALLOWED) == set(), "parameters never read"
    assert set(ALLOWED) - found == set(), "allowlist entries no longer needed"


def test_scan_sees_an_unread_parameter(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f(a, b, *c, d, **e):\n    a += d\n    return [e]\n\n"
                    "class K:\n    def g(self, x):\n"
                    "        def h(y):\n            return x\n        return h\n")
    assert unread_params(path) == {"m.f:b", "m.f:c", "m.K.g.h:y"}
