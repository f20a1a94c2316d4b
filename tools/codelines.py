"""Count code lines, and hold the ceilinged paths to their ceilings.

A code line holds a token that is neither a comment nor a docstring.

    python tools/codelines.py [PATH ...]

prints each PATH's count (a directory's ``*.py`` files summed).  With no
PATH it prints every path of :data:`CEILINGS` with its count and
ceiling, and exits 1 when one is over.  Code size is a ratchet: a change
that grows a ceilinged path raises its number here, in its own diff,
where its cost is seen; a change that shrinks one may lower it.
``tests/integration/test_code_lines.py`` holds every path to it.
"""
import ast, io, sys, tokenize
from pathlib import Path
ROOT = Path(__file__).resolve().parents[1]
#: path (from the repository root) -> the most code lines it may hold
CEILINGS = {
    # - get and each bulk_get item run one read of one object (the shadow
    #   fallback and every kind included), - one shadow-directory helper
    #   where there were two; + bulk_query_metadata reads a link's target
    "src/repro": 11_633,
    "src/repro/core/containers.py": 148,
    "src/repro/core/dispatch.py": 353,
    # + the runner's control leg: a leg whose path_key is None is sent
    #   blocking, in order, on one stream (it replaced three raw sends in
    #   the planes, so base.py and the lint allowlist shrank)
    "src/repro/core/federation.py": 296,
    "src/repro/core/planes/base.py": 230,
    # + bulk_query_metadata reads a link's own rows and its target's
    "src/repro/core/planes/data.py": 873,
    "src/repro/core/planes/replica.py": 152,
    "src/repro/core/replication.py": 49,
    "src/repro/db/engine.py": 430,
    # + op_range, the operator -> range mapping the engine's planner and
    #   the catalog's probes share
    "src/repro/db/index.py": 119,
    # + like_to_regex's compiled-pattern cache is a private helper, so the
    #   public name stays a function that carries its docstring
    "src/repro/db/sql.py": 364,
    # + Table.insert_many, the row builder it shares with insert, and the
    #   merge of a batch into a sorted index; + a batch of one row handed
    #   to insert (a single ingest's rows cost fewer calls that way)
    "src/repro/db/table.py": 412,
    "src/repro/mcat/catalog.py": 734,
    "src/repro/mcat/query.py": 326,
    "src/repro/mcat/shard.py": 579,
    "src/repro/mysrb/views.py": 531,
    "src/repro/net/rpc.py": 339,
    "src/repro/net/simnet.py": 511,
    "src/repro/storage/archive.py": 199,
    "src/repro/storage/base.py": 124,
    "src/repro/storage/memfs.py": 99,
    # + the ceilings themselves, which were a test's dict and a CI list
    "tools/codelines.py": 55,
}
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
def count(path):
    """Code lines of a file, or of a directory's ``*.py`` files."""
    p = Path(path)
    return sum(map(code_lines,
                   sorted(p.rglob("*.py")) if p.is_dir() else [p]))
if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(count(arg), arg)
    over = []
    for path, ceiling in CEILINGS.items() if not sys.argv[1:] else ():
        lines = count(ROOT / path)
        print(lines, "of", ceiling, path)
        if lines > ceiling:
            over.append(path)
    sys.exit(f"over the ceiling: {', '.join(over)}" if over else 0)
