"""Print the code lines of each ``src/cvwl`` module and their total.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the leading string of a module, class or function).
Blank lines do not count.  Run from anywhere: ``python tools/code_lines.py``.
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cvwl"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines in one source file."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    counts = {path.stem: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:12} {count:6,}")
    print(f"{'total':12} {sum(counts.values()):6,}")


if __name__ == "__main__":
    main()
