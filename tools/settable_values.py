"""Count the settable values of the spinlab package: every parameter of
every function, method and lambda except `self` and `cls`, plus every
annotated field of every class.

    python3 tools/settable_values.py

prints one line per module of `src/spinlab` and a total line of the form
`total: <parameters> + <fields> = <sum>`.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinlab"


def count(tree) -> tuple[int, int]:
    """(parameters, annotated class fields) of one module's tree."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params += sum(p is not None and p.arg not in ("self", "cls")
                          for p in (*a.posonlyargs, *a.args, a.vararg,
                                    *a.kwonlyargs, a.kwarg))
        elif isinstance(node, ast.ClassDef):
            fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return params, fields


def main() -> int:
    total_p = total_f = 0
    for path in sorted(SRC.glob("*.py")):
        p, f = count(ast.parse(path.read_text()))
        total_p += p
        total_f += f
        print(f"{path.name}: {p} + {f} = {p + f}")
    print(f"total: {total_p} + {total_f} = {total_p + total_f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
