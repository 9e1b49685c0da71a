#!/usr/bin/env python3
"""ompmca-lint: project-specific static checks for the OpenMP-MCA tree.

Rules (see DESIGN.md §12 for the catalog and rationale):

  ignored-status     Status/Result values must not be silently discarded.
                     With libclang available this is a type-aware check over
                     compile_commands.json; without it, the fallback verifies
                     the [[nodiscard]] sweep is still in place (the compiler
                     then enforces call sites) and that every `(void)call(...)`
                     cast carries a reason comment on its own or the previous
                     line.
  hook-parity        Per file, every lock class named in OMPMCA_CHECK_ACQUIRE
                     also appears in OMPMCA_CHECK_RELEASE (and vice versa),
                     and OMPMCA_CHECK_REGION_ENTER/EXIT counts match.
  fault-parity       Every OMPMCA_FAULT_POINT(site) names a registered
                     recovery policy: a project-wide OMPMCA_FAULT_RECOVERED /
                     OMPMCA_FAULT_EXHAUSTED for the same site, or an explicit
                     `fault-policy:` comment within the 3 lines above the
                     point explaining why no in-runtime retry exists.
  seq-cst            An explicit std::memory_order_seq_cst in src/gomp/ needs
                     a `seq_cst:` justification comment within the 6 lines
                     above it (inclusive of its own line).
  no-tsa             Every OMPMCA_NO_TSA outside annotations.hpp needs a
                     `tsa:` justification comment within the 4 lines above it
                     (or on its own / the following line).
  env-knob           Every OMPMCA_* name the scanned tree reads through
                     env_string/env_long/env_long_clamped/env_bool/getenv has
                     a row in README.md's "Runtime knobs" table, and every
                     row names a variable the tree reads (the stale-row half
                     is skipped when explicit files are linted).

Exit status: 0 when clean, 1 when any violation is reported, 2 on usage
errors.  Each violation is reported exactly once as `file:line: [rule] msg`.
"""

import argparse
import os
import re
import sys
from collections import defaultdict

SRC_EXTS = (".cpp", ".hpp", ".cc", ".h")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def key(self):
        return (self.path, self.line, self.rule, self.message)


def iter_source_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SRC_EXTS):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def relpath(path, root):
    try:
        return os.path.relpath(path, root)
    except ValueError:
        return path


# --- ignored-status ------------------------------------------------------------

NODISCARD_ANCHORS = [
    # (file, required substring, description)
    ("src/common/status.hpp", "enum class [[nodiscard]] Status",
     "Status enum lost its [[nodiscard]] attribute"),
    ("src/common/expected.hpp", "class [[nodiscard]] Result",
     "Result<T> lost its [[nodiscard]] attribute"),
]

# `(void)` applied to a call expression: discards a return value on purpose.
VOID_CALL_RE = re.compile(r"\(void\)\s*[A-Za-z_][\w:\->.\[\]* ]*\(")


def check_ignored_status_fallback(root, files, out):
    """Regex fallback: anchor the [[nodiscard]] sweep + audit (void) casts."""
    for rel, needle, msg in NODISCARD_ANCHORS:
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            continue
        text = "\n".join(read_lines(path))
        if needle not in text:
            out.append(Violation(rel, 1, "ignored-status", msg))

    for path in files:
        lines = read_lines(path)
        rel = relpath(path, root)
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            if not VOID_CALL_RE.search(code):
                continue
            # A reason may ride on the same line or the line above.
            here = "//" in line
            above = i > 0 and lines[i - 1].lstrip().startswith("//")
            if not here and not above:
                out.append(Violation(
                    rel, i + 1, "ignored-status",
                    "(void)-discarded call without a reason comment "
                    "(add `// why` on this or the previous line)"))


def try_libclang_ignored_status(root, out):
    """Type-aware ignored-return check over compile_commands.json.

    Returns True when libclang ran (the fallback is then skipped for call
    sites; the [[nodiscard]] anchors are still verified by the caller).
    """
    try:
        from clang import cindex  # noqa: F401
    except ImportError:
        return False
    cc_path = os.path.join(root, "build", "compile_commands.json")
    if not os.path.isfile(cc_path):
        return False
    try:
        index = cindex.Index.create()
        db = cindex.CompilationDatabase.fromDirectory(os.path.dirname(cc_path))
    except Exception:
        return False

    status_types = {"Status", "ompmca::Status"}
    for cmd in db.getAllCompileCommands():
        src = cmd.filename
        if not src.startswith(os.path.join(root, "src")):
            continue
        args = [a for a in cmd.arguments][1:-1]
        try:
            tu = index.parse(src, args=args)
        except Exception:
            continue
        for cur in tu.cursor.walk_preorder():
            if cur.kind != cindex.CursorKind.CALL_EXPR:
                continue
            parent = cur.semantic_parent
            rtype = cur.type.spelling
            if rtype.split("::")[-1] not in status_types:
                continue
            # An expression statement whose value dies immediately.
            if cur.extent.start.file and parent is not None:
                ext = cur.extent
                out.append(Violation(
                    relpath(str(ext.start.file), root), ext.start.line,
                    "ignored-status",
                    f"call returning {rtype} used as a statement"))
    return True


# --- hook-parity ---------------------------------------------------------------

ACQUIRE_RE = re.compile(r"OMPMCA_CHECK_ACQUIRE\(\s*(?:check::)?LockClass::(\w+)")
RELEASE_RE = re.compile(r"OMPMCA_CHECK_RELEASE\(\s*(?:check::)?LockClass::(\w+)")


def check_hook_parity(root, files, out):
    for path in files:
        rel = relpath(path, root)
        if rel.replace(os.sep, "/").endswith("check/check.hpp"):
            continue  # the macro definitions themselves
        lines = read_lines(path)
        acquires = defaultdict(list)   # class -> first line
        releases = defaultdict(list)
        enter_lines, exit_lines = [], []
        for i, line in enumerate(lines):
            for m in ACQUIRE_RE.finditer(line):
                acquires[m.group(1)].append(i + 1)
            for m in RELEASE_RE.finditer(line):
                releases[m.group(1)].append(i + 1)
            if "OMPMCA_CHECK_REGION_ENTER" in line:
                enter_lines.append(i + 1)
            if "OMPMCA_CHECK_REGION_EXIT" in line:
                exit_lines.append(i + 1)
        for cls in sorted(set(acquires) - set(releases)):
            out.append(Violation(
                rel, acquires[cls][0], "hook-parity",
                f"OMPMCA_CHECK_ACQUIRE({cls}) has no matching "
                f"OMPMCA_CHECK_RELEASE in this file"))
        for cls in sorted(set(releases) - set(acquires)):
            out.append(Violation(
                rel, releases[cls][0], "hook-parity",
                f"OMPMCA_CHECK_RELEASE({cls}) has no matching "
                f"OMPMCA_CHECK_ACQUIRE in this file"))
        if len(enter_lines) != len(exit_lines):
            line = (enter_lines or exit_lines)[0]
            out.append(Violation(
                rel, line, "hook-parity",
                f"REGION_ENTER/REGION_EXIT count mismatch "
                f"({len(enter_lines)} enter vs {len(exit_lines)} exit)"))


# --- fault-parity --------------------------------------------------------------

FAULT_POINT_RE = re.compile(r"OMPMCA_FAULT_POINT\(\s*(\w+)")
FAULT_RECOVER_RE = re.compile(r"OMPMCA_FAULT_(?:RECOVERED|EXHAUSTED)\(\s*(\w+)")


def check_fault_parity(root, files, out):
    points = {}      # site -> (rel, line) of first unwaived point
    recovered = set()
    for path in files:
        rel = relpath(path, root)
        if rel.replace(os.sep, "/").endswith("fault/fault.hpp"):
            continue  # the macro definitions themselves
        lines = read_lines(path)
        for i, line in enumerate(lines):
            for m in FAULT_RECOVER_RE.finditer(line):
                recovered.add(m.group(1))
            for m in FAULT_POINT_RE.finditer(line):
                site = m.group(1)
                lo = max(0, i - 3)
                window = lines[lo:i + 1]
                if any("fault-policy:" in w for w in window):
                    continue  # explicitly waived with a named policy
                points.setdefault(site, (rel, i + 1))
    for site in sorted(set(points) - recovered):
        rel, line = points[site]
        out.append(Violation(
            rel, line, "fault-parity",
            f"fault site {site} has no OMPMCA_FAULT_RECOVERED/EXHAUSTED "
            f"anywhere and no `fault-policy:` waiver comment"))


# --- seq-cst -------------------------------------------------------------------

SEQ_CST_RE = re.compile(r"memory_order_seq_cst")


def check_seq_cst(root, files, out):
    for path in files:
        rel = relpath(path, root)
        norm = rel.replace(os.sep, "/")
        if not norm.startswith("src/gomp/"):
            continue
        lines = read_lines(path)
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            if not SEQ_CST_RE.search(code):
                continue
            lo = max(0, i - 6)
            window = lines[lo:i + 1]
            if any("seq_cst:" in w for w in window):
                continue
            out.append(Violation(
                rel, i + 1, "seq-cst",
                "std::memory_order_seq_cst without a `// seq_cst:` "
                "justification within the 6 lines above"))


# --- no-tsa --------------------------------------------------------------------

def check_no_tsa(root, files, out):
    for path in files:
        rel = relpath(path, root)
        if rel.replace(os.sep, "/").endswith("common/annotations.hpp"):
            continue  # the macro definition itself
        lines = read_lines(path)
        for i, line in enumerate(lines):
            if "OMPMCA_NO_TSA" not in line:
                continue
            lo = max(0, i - 4)
            hi = min(len(lines), i + 2)
            window = lines[lo:hi]
            if any("tsa:" in w for w in window):
                continue
            out.append(Violation(
                rel, i + 1, "no-tsa",
                "OMPMCA_NO_TSA without a `// tsa:` justification within the "
                "4 lines above (or adjacent)"))


# --- env-knob ------------------------------------------------------------------

ENV_READ_RE = re.compile(
    r"\b(?:env_string|env_long_clamped|env_long|env_bool|getenv)\s*\(\s*"
    r'"(OMPMCA_\w+)"')
KNOB_NAME_RE = re.compile(r"OMPMCA_\w+")
# Splits a markdown table row on cell separators, not on escaped `\|`.
CELL_SPLIT_RE = re.compile(r"(?<!\\)\|")


def readme_knob_rows(root):
    """Maps each OMPMCA_* name in the first cell of README.md's "Runtime
    knobs" table to its line.  Empty when there is no such table."""
    path = os.path.join(root, "README.md")
    if not os.path.isfile(path):
        return {}
    rows = {}
    in_section = False
    in_table = False
    for i, line in enumerate(read_lines(path)):
        if not in_section:
            in_section = "Runtime knobs" in line
            continue
        if line.lstrip().startswith("|"):
            in_table = True
            cells = CELL_SPLIT_RE.split(line)
            if len(cells) > 1:
                for name in KNOB_NAME_RE.findall(cells[1]):
                    rows.setdefault(name, i + 1)
        elif in_table:
            break
    return rows


def check_env_knob(root, files, out, whole_tree):
    reads = {}  # name -> (rel, line) of its first read
    for path in files:
        rel = relpath(path, root)
        # Comments out; line structure kept, so offsets map to lines.
        code = "\n".join(l.split("//", 1)[0] for l in read_lines(path))
        for m in ENV_READ_RE.finditer(code):
            line = code.count("\n", 0, m.start()) + 1
            reads.setdefault(m.group(1), (rel, line))
    rows = readme_knob_rows(root)
    for name in sorted(set(reads) - set(rows)):
        rel, line = reads[name]
        out.append(Violation(
            rel, line, "env-knob",
            f"{name} is read here but has no row in README.md's "
            f"\"Runtime knobs\" table"))
    if not whole_tree:
        return
    for name in sorted(set(rows) - set(reads)):
        out.append(Violation(
            "README.md", rows[name], "env-knob",
            f"\"Runtime knobs\" row {name} names a variable nothing reads"))


# --- driver --------------------------------------------------------------------

ALL_RULES = ("ignored-status", "hook-parity", "fault-parity", "seq-cst",
             "no-tsa", "env-knob")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: two levels above this "
                         "script)")
    ap.add_argument("--rules", default=",".join(ALL_RULES),
                    help="comma-separated subset of rules to run")
    ap.add_argument("--subdirs", default="src",
                    help="comma-separated directories (relative to root) to "
                         "scan; the ignored-status (void) audit and hook "
                         "rules run over all of them")
    ap.add_argument("paths", nargs="*",
                    help="explicit files to scan instead of --subdirs")
    args = ap.parse_args(argv)

    root = args.root or os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    for r in rules:
        if r not in ALL_RULES:
            print(f"ompmca-lint: unknown rule '{r}'", file=sys.stderr)
            return 2

    if args.paths:
        files = [os.path.abspath(p) for p in args.paths]
        missing = [p for p in files if not os.path.isfile(p)]
        if missing:
            for p in missing:
                print(f"ompmca-lint: no such file: {p}", file=sys.stderr)
            return 2
    else:
        subdirs = [s.strip() for s in args.subdirs.split(",") if s.strip()]
        files = list(iter_source_files(root, subdirs))

    out = []
    if "ignored-status" in rules:
        # libclang (when present) does the type-aware call-site analysis;
        # the regex fallback audits (void) casts.  The [[nodiscard]] anchors
        # are verified either way.
        if not try_libclang_ignored_status(root, out):
            check_ignored_status_fallback(root, files, out)
        else:
            check_ignored_status_fallback(root, [], out)  # anchors only
    if "hook-parity" in rules:
        check_hook_parity(root, files, out)
    if "fault-parity" in rules:
        check_fault_parity(root, files, out)
    if "seq-cst" in rules:
        check_seq_cst(root, files, out)
    if "no-tsa" in rules:
        check_no_tsa(root, files, out)
    if "env-knob" in rules:
        check_env_knob(root, files, out, whole_tree=not args.paths)

    seen = set()
    unique = []
    for v in out:
        if v.key() in seen:
            continue
        seen.add(v.key())
        unique.append(v)
    unique.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in unique:
        print(v)
    if unique:
        print(f"ompmca-lint: {len(unique)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
