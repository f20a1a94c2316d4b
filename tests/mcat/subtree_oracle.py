"""The subtree reads and the rename the catalog's one subtree reader
replaced, kept as a differential oracle.

Before ``Mcat._subtree_collections``, ``Mcat._subtree`` and
``Mcat._renamed`` read a subtree off the ``parent``, path and
``coll_path`` indexes, a recursive object listing and ``rename_subtree``
scanned every row of ``objects`` and ``collections``, and the
cross-partition rename every row of ``structural_meta``.  :func:`scan_subtree` is that selection;
:func:`scan_rename` is the in-place rename as it was, which rewrote
collection and object paths and left the requirements behind.
"""

from typing import List, Tuple

from repro.util import paths


def scan_subtree(mcat, prefix: str) -> Tuple[List[int], List[int],
                                              List[int]]:
    """Row ids of the collections at or under normalized ``prefix`` and
    of the objects under it (each in path order), and of the
    ``structural_meta`` rows on those paths (in rid order), by whole-table
    scans."""
    colls, objs, st = (mcat.db.table(name) for name in
                       ("collections", "objects", "structural_meta"))

    def under(path):
        return path == prefix or paths.is_ancestor(prefix, path)

    in_colls = sorted((colls.value(rid, "path"), rid) for rid in colls.scan()
                      if under(colls.value(rid, "path")))
    in_objs = sorted((objs.value(rid, "path"), rid) for rid in objs.scan()
                     if paths.is_ancestor(prefix, objs.value(rid, "path")))
    return ([rid for _path, rid in in_colls], [rid for _path, rid in in_objs],
            [rid for rid in st.scan() if under(st.value(rid, "coll_path"))])


def scan_rename(mcat, old_prefix: str, new_prefix: str) -> int:
    """``Mcat.rename_subtree`` before the one reader: every collection and
    object path under ``old_prefix`` rewritten in place, found by a scan
    of both tables.  ``structural_meta`` is not touched."""
    with mcat._charge:
        old_prefix = paths.normalize(old_prefix)
        new_prefix = paths.normalize(new_prefix)
        colls = mcat.db.table("collections")
        objs = mcat.db.table("objects")
        count = 0
        for rid in list(colls.scan()):
            row = colls.row_dict(rid)
            p = row["path"]
            if p == old_prefix or paths.is_ancestor(old_prefix, p):
                newp = paths.relocate(p, old_prefix, new_prefix)
                changes = {"path": newp}
                if row["parent"] is not None:
                    if row["parent"] == old_prefix or \
                            paths.is_ancestor(old_prefix, row["parent"]) or \
                            p == old_prefix:
                        changes["parent"] = paths.dirname(newp)
                colls.update_row(rid, changes)
                count += 1
        for rid in list(objs.scan()):
            row = objs.row_dict(rid)
            if paths.is_ancestor(old_prefix, row["path"]):
                newp = paths.relocate(row["path"], old_prefix, new_prefix)
                objs.update_row(rid, {"path": newp,
                                      "coll": paths.dirname(newp),
                                      "name": paths.basename(newp)})
                count += 1
        return count
