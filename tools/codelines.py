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
    # + the metadata table's (target_id, attr) index, which a query reads
    #   only the triples it names through (db 1,308 -> 1,396, mcat 1,864
    #   -> 1,868); + a run of leaves sized in passes on the wire; + the
    #   chain levels an op's collection checks hand to the rows it lists;
    #   11,269 -> 11,410; - the byte movement of ContainerManager and
    #   replication.synchronize, now the planes' one write loop, 11,394;
    #   + a bulk ingest is one batch in the paths (paths.locate), the
    #   catalog (Mcat._new_rows), the tables (Table._rows_of, one body for
    #   insert and insert_many), the wire (same-shaped dicts sized by
    #   column) and the planes, and the unpin that reaches first, 11,434
    #   (the 40 lines ROADMAP item 25 allows); - each event counted once,
    #   by its owner, and read by the registry's collectors (obs/ lost
    #   the bound handles, the owners' modules below gained their
    #   samples), a table's scans counted only into its database's
    #   counter, + an ingest item with no bytes refused alone, + a
    #   histogram observation that calls nothing but bisect, 11,431
    "src/repro": 11_431,
    # the catalog side of containers only: rows, primary copy, members
    "src/repro/core/containers.py": 62,
    # + the per-op chain levels opened and dropped with the op; + the
    #   zone check of a bulk op's items, one call per batch
    "src/repro/core/dispatch.py": 354,
    # + the runner's control leg: a leg whose path_key is None is sent
    #   blocking, in order, on one stream (it replaced three raw sends in
    #   the planes, so base.py and the lint allowlist shrank)
    "src/repro/core/federation.py": 296,
    # + every driver mutation of the grid and the one rule that carries
    #   an act to a resource's host first (_reach: sessions, control
    #   messages, payload legs, abort or skip), the write loop _store
    #   with create/replace/append, _remove, _pin and _refresh (the
    #   replica refresh of synchronize and of a container's sync, moved
    #   here from replication.py and containers.py); + content_checksums
    "src/repro/core/planes/base.py": 299,
    # + delete removes bytes all or none: a pinned replica or a storage
    #   system that is down refuses it before any replica goes; + the
    #   container acts moved in from ContainerManager (append, create,
    #   compaction), each through the write loop; - _ingest's steps as
    #   batches and the bulk ops' one error reply (_item_error)
    #   + an ingest item with no bytes refused alone
    "src/repro/core/planes/data.py": 903,
    # + a physical move whose source delete is refused takes back the
    #   copy it made
    "src/repro/core/planes/replica.py": 153,
    "src/repro/core/replication.py": 19,
    # + an equality predicate on the first column of a pair's hash index
    #   is answered by that index
    "src/repro/db/engine.py": 412,
    # + NestedIndex, the hash index over a pair, and the bucket upkeep
    #   it shares with HashIndex
    "src/repro/db/index.py": 144,
    # + like_to_regex's compiled-pattern cache is a private helper, so the
    #   public name stays a function that carries its docstring
    "src/repro/db/sql.py": 364,
    # + Table.insert_many, the row builder it shares with insert, and the
    #   merge of a batch into a sorted index; + a batch of one row handed
    #   to insert (a single ingest's rows cost fewer calls that way);
    #   + restore_rows builds each row as insert does, - the unread
    #   _known and lookup_eq's hand-written scan loop; + the hash index
    #   over a pair: its upkeep in the row plan, lookup_eq on its first
    #   column, lookup_pairs, and count_eq for the cost rule; + lookup_eq
    #   of a pair of columns answered as lookup_pairs; + _rows_of, the
    #   one row builder of insert and insert_many, and lookup_eq_many
    #   and iter_values with no call per call beyond their own; - the
    #   per-table rows_scanned, which shadowed the shared scan counter
    "src/repro/db/table.py": 462,
    # the catalog's two packages, held together as well as file by file;
    # - the dicts, __len__, schema and extraction lookups only tests called
    "src/repro/db": 1_391,
    "src/repro/mcat": 1_875,
    # + an in-place rename refuses a taken destination or a missing
    #   parent, as a rename across partitions does; + _new_rows, a batch
    #   of object rows checked in one pass (it replaced _object_values)
    "src/repro/mcat/catalog.py": 696,
    # + the cost rule prices the named attributes' triples, so it is
    #   handed them
    "src/repro/mcat/query.py": 301,
    # + a rename at the partition level refuses a taken destination
    #   first, as the move op's own check did
    "src/repro/mcat/shard.py": 520,
    # + the object view and the metadata form each split into a fetch
    #   and a render, so a write page renders from its own batch
    "src/repro/mysrb/views.py": 535,
    # + call_batch's dependent items: checked before the batch is sent,
    #   skipped where they run when an item they need failed; + the
    #   per-method calls and bytes, failures and batches the registry
    #   keeps, the totals derived from them, and their collector samples
    "src/repro/net/rpc.py": 349,
    # + the per-link, per-group and per-channel counts the network keeps
    #   (the totals derived from them) and a station's admissions per
    #   (service, method), read by the collector when asked
    "src/repro/net/simnet.py": 516,
    # - is_pinned and used_bytes, which only tests called
    "src/repro/storage/archive.py": 195,
    "src/repro/storage/base.py": 116,
    "src/repro/storage/memfs.py": 99,
    # + the ceilings themselves, which were a test's dict and a CI list
    "tools/codelines.py": 54,
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
    return sum(map(code_lines, p.rglob("*.py") if p.is_dir() else [p]))
if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(count(arg), arg)
    counts = {} if sys.argv[1:] else {p: count(ROOT / p) for p in CEILINGS}
    for path, lines in counts.items():
        print(lines, "of", CEILINGS[path], path)
    over = [path for path, lines in counts.items() if lines > CEILINGS[path]]
    sys.exit(f"over the ceiling: {', '.join(over)}" if over else 0)
