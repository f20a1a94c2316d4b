import ast, io, sys, tokenize
from pathlib import Path
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
def code_lines(path):
    src, doc, lines = Path(path).read_text(), set(), set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno,
                             node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            lines.update(set(range(tok.start[0], tok.end[0] + 1)) - doc)
    return len(lines)
if __name__ == "__main__":
    for arg in sys.argv[1:]:
        p = Path(arg)
        print(sum(map(code_lines, p.rglob("*.py") if p.is_dir() else [p])),
              arg)
