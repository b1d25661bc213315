#!/usr/bin/env python3
"""oaklint — Oak-specific static checks the generic analyses can't express.

Clang's -Wthread-safety proves the lock/field discipline (DESIGN.md §10a);
oaklint enforces the *protocol* rules layered on top of it:

  R1  no zero-copy view or translated slice pointer stored to a member or
      returned while inside an EBR guard scope (the pointer outlives the pin)
  R2  no std::getenv outside src/common/env.hpp (the single env gateway)
  R3  no allocation (new / malloc / container growth) while holding a
      SpinLock — spin waiters burn CPU for the whole malloc
  R4  no packed-ref {block, offset} pointer arithmetic outside src/mem/
      (dereference goes through MemoryManager::translate)
  R5  no blocking call (mutex acquire, condition wait, sleep, join) inside
      an EBR guard — a blocked pinned thread stalls reclamation everywhere
  R6  no raw MVCC version-stamp manipulation outside src/oak/ + src/mem/ —
      stamps are opaque tickets (Snapshot::version() -> snapshotAt());
      touching writeVersion/dataVersion fields or doing +/- arithmetic on a
      stamp forges a read version the GC never promised to keep alive
  R7  no direct {block, offset} ref materialization (Ref::make) outside
      src/mem/ — slices relocate under the evacuator, so a hand-built ref
      bypasses the allocator's liveness accounting and can name bytes that
      have since moved (detail::headerRef is the one blessed helper:
      pinned-domain value headers never relocate)
  R8  no oak::env read in map library code (src/ outside common/env.hpp,
      common/fault.cpp and benchcore/) — every map knob comes from its
      config, so an environment fallback is a hidden second config source

Engines:
  * libclang — AST-accurate; used when python3-clang is importable
    (the CI `oaklint` job).  Parse args come from compile_commands.json
    when present (every preset exports it), else conservative defaults.
  * textual  — dependency-free line scanner with comment/string stripping
    and brace-scope tracking; the always-available fallback that makes the
    ctest self-test meaningful on machines without libclang.

Suppressions: `// oaklint: allow(RN, reason)` on the offending line or the
line above it.  Fixtures under tests/lint_fixtures/ declare intent with
`// oaklint-expect: RN`; `--self-test` asserts every fixture is flagged
with exactly its declared rule and the real tree is clean.

Exit status: 0 clean / self-test pass, 1 findings / self-test failure,
2 usage or engine-unavailable error.
"""

import argparse
import json
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RULES = {
    "R1": "zero-copy view escapes its EBR guard scope",
    "R2": "std::getenv outside common/env.hpp",
    "R3": "allocation while holding a SpinLock",
    "R4": "packed-ref arithmetic outside MemoryManager",
    "R5": "blocking call inside an EBR guard",
    "R6": "raw version-stamp manipulation outside the MVCC layer",
    "R7": "packed-ref materialization outside the mem layer",
    "R8": "environment read in map library code",
}

DEFAULT_ROOTS = ["src", "tests", "bench"]
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")
ENV_GATEWAY = os.path.join("src", "common", "env.hpp")
# The allocator/memory layer *is* the implementation below MemoryManager:
# R1/R4 do not apply to it (it manufactures the refs and the pointers).
MEM_LAYER = os.path.join("src", "mem") + os.sep
# The map core owns the version clock and the per-value chains: R6 does not
# apply to src/oak/ (or src/mem/, which stores the stamped headers).
OAK_LAYER = os.path.join("src", "oak") + os.sep
# R8: the library paths allowed to read the environment — the gateway
# itself, the checked-build fault schedule (OAK_FAULT_SPEC) and the bench
# harness.  Fixtures stand in for library code.
LIBRARY_ROOT = "src" + os.sep
ENV_READERS = (ENV_GATEWAY, os.path.join("src", "common", "fault.cpp"),
               os.path.join("src", "benchcore") + os.sep)

ALLOW_RE = re.compile(r"oaklint:\s*allow\((R[1-8])\b")
EXPECT_RE = re.compile(r"oaklint-expect:\s*(R[1-8])\b")

SOURCE_EXTS = (".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h")


class Finding:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self):
        rel = os.path.relpath(self.path, REPO)
        return f"{rel}:{self.line}: [{self.rule}] {RULES[self.rule]} — {self.detail}"


# --------------------------------------------------------------- files --

def collect_files(paths, include_fixtures=False):
    out = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(REPO, p)
        if os.path.isfile(ap):
            out.append(ap)
            continue
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames[:] = [d for d in dirnames if d not in ("CMakeFiles", ".git")]
            for f in sorted(filenames):
                full = os.path.join(dirpath, f)
                rel = os.path.relpath(full, REPO)
                if not f.endswith(SOURCE_EXTS):
                    continue
                if not include_fixtures and rel.startswith(FIXTURE_DIR):
                    continue
                out.append(full)
    return out


def read_lines(path):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read().splitlines()


def allowed_rules(lines, lineno):
    """Suppressions on the finding's line or the line(s) directly above it
    (a multi-line allow comment suppresses for the line after its end)."""
    rules = set()
    for ln in (lineno, lineno - 1, lineno - 2):
        if 1 <= ln <= len(lines):
            m = ALLOW_RE.search(lines[ln - 1])
            if m:
                rules.add(m.group(1))
    return rules


def is_mem_layer(path):
    return os.path.relpath(path, REPO).startswith(MEM_LAYER)


def is_env_gateway(path):
    return os.path.relpath(path, REPO) == ENV_GATEWAY


def is_env_restricted(path):
    rel = os.path.relpath(path, REPO)
    if rel.startswith(FIXTURE_DIR):
        return True
    return rel.startswith(LIBRARY_ROOT) and \
        not any(rel == p or rel.startswith(p) for p in ENV_READERS)


def is_version_layer(path):
    rel = os.path.relpath(path, REPO)
    return rel.startswith(MEM_LAYER) or rel.startswith(OAK_LAYER)


ASSERTION_RE = re.compile(r"\b(?:EXPECT_|ASSERT_)[A-Z]+\w*\s*\(")


def line_is_assertion(lines, lineno):
    """Offset arithmetic inside a gtest assertion compares integers — it
    never manufactures a pointer, so R4 does not apply."""
    return 1 <= lineno <= len(lines) and bool(ASSERTION_RE.search(lines[lineno - 1]))


# ------------------------------------------------------ textual engine --

# Local scoped-guard declarations (must have an initializer — a plain
# `Ebr::Guard guard_;` member declaration is not a lexical critical section).
SPIN_DECL_RE = re.compile(r"\b(?:SpinGuard\s+\w+\s*[({]|lock_guard<\s*(?:oak::)?SpinLock\s*>\s*\w+\s*[({])")
EBR_DECL_RE = re.compile(r"\bEbr::Guard\s+\w+\s*[({]")

ALLOC_RE = re.compile(
    r"(?:\bnew\b(?!\s*\()|\bnew\s*\(|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"(?:\.|->)(?:push_back|emplace_back|emplace|insert|resize|reserve|append)\s*\(|"
    r"\bmake_unique<|\bmake_shared<)"
)
BLOCKING_RE = re.compile(
    r"(?:\bMutexLock\b|\bWriterLock\b|\bReaderLock\b|std::unique_lock|std::lock_guard|"
    r"std::scoped_lock|(?:\.|->)lock\s*\(\s*\)|(?:\.|->)wait(?:_for|_until)?\s*\(|"
    r"\bsleep_for\s*\(|\bsleep_until\s*\(|(?:\.|->)join\s*\(\s*\))"
)
GETENV_RE = re.compile(r"\bgetenv\s*\(")
ENV_READ_RE = re.compile(r"\benv::\w+\s*\(")
ENV_READ_DETAIL = "map knobs come from the config only — add a config field, not an env fallback"
VIEW_STORE_RE = re.compile(r"(?:this->)?\w+_\s*=\s*[^=].*(?:(?:\.|->)translate\s*\(|\bOakRBuffer\b|\bValueRef\b)")
VIEW_RETURN_RE = re.compile(r"\breturn\b.*(?:\.|->)translate\s*\(")
REF_ARITH_RE = re.compile(
    r"(?:(?:\.|->)offset\s*\(\s*\)\s*[+\-]|[+\-]\s*\w+(?:\.|->)offset\s*\(\s*\)|"
    r"reinterpret_cast<[^>]*>\s*\([^;]*(?:\.|->)offset\s*\(\s*\))"
)
# R6: the raw stamp fields are an implementation detail of value.hpp; any
# member access to them outside the MVCC layer is a protocol break.
VERSION_FIELD_RE = re.compile(r"(?:\.|->)\s*(?:writeVersion|dataVersion)\b")
# R6: +/- (or bit-twiddling) on an opaque stamp forges a version.  Covers
# `snap.version() + 1`, `1 + s.version()`, and direct snapshotVersion math.
VERSION_ARITH_RE = re.compile(
    r"(?:(?:\.|->)version\s*\(\s*\)\s*[+\-^&|]|[+\-]\s*\w*(?:\.|->)version\s*\(\s*\)|"
    r"(?:\.|->)?snapshotVersion\s*(?:[+\-^&|]|[+\-^&|]?=\s*[^=]))"
)
# R7: Ref::make (but not VRef::make — the value layer owns VRef) forges a
# {block, offset} the allocator never handed out.
REF_MAKE_RE = re.compile(r"(?<!V)\bRef::make\s*\(")


def strip_code(line, in_block_comment):
    """Removes string/char literals and comments; returns (code, in_block)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if in_block_comment:
            j = line.find("*/", i)
            if j < 0:
                return "".join(out), True
            i = j + 2
            in_block_comment = False
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block_comment = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block_comment


def textual_scan_file(path):
    lines = read_lines(path)
    findings = []
    depth = 0
    in_block = False
    guards = []  # (kind, depth-at-declaration)
    mem_layer = is_mem_layer(path)
    env_gateway = is_env_gateway(path)
    env_restricted = is_env_restricted(path)
    version_layer = is_version_layer(path)

    def active(kind):
        return any(g[0] == kind for g in guards)

    for lineno, rawline in enumerate(lines, 1):
        code, in_block = strip_code(rawline, in_block)
        if not code.strip():
            continue
        allowed = None  # computed lazily

        def flag(rule, detail):
            nonlocal allowed
            if allowed is None:
                allowed = allowed_rules(lines, lineno)
            if rule not in allowed:
                findings.append(Finding(path, lineno, rule, detail))

        spin_decl = SPIN_DECL_RE.search(code)
        ebr_decl = EBR_DECL_RE.search(code)

        if not env_gateway and GETENV_RE.search(code):
            flag("R2", "route environment reads through oak::env")
        if env_restricted and ENV_READ_RE.search(code):
            flag("R8", ENV_READ_DETAIL)
        if not mem_layer and REF_ARITH_RE.search(code) and \
                not ASSERTION_RE.search(code):
            flag("R4", "dereference refs via MemoryManager::translate")
        if not mem_layer and REF_MAKE_RE.search(code):
            flag("R7", "only the allocator mints refs — use the slice refs it"
                       " returned (or detail::headerRef for value headers)")
        if not version_layer:
            if VERSION_FIELD_RE.search(code):
                flag("R6", "raw writeVersion/dataVersion access — stamps are "
                           "owned by value.hpp")
            elif VERSION_ARITH_RE.search(code) and \
                    not ASSERTION_RE.search(code):
                flag("R6", "version stamps are opaque — pass Snapshot::version()"
                           " to snapshotAt() unmodified")
        if active("spin"):
            m = ALLOC_RE.search(code)
            if m:
                flag("R3", f"'{m.group(0).strip()}' inside a SpinLock window")
        if active("ebr"):
            m = BLOCKING_RE.search(code)
            # The guard-declaration line itself never blocks; and a nested
            # guard decl is not a blocking call.
            if m and not (spin_decl and m.start() >= spin_decl.start()):
                flag("R5", f"'{m.group(0).strip()}' while pinning an epoch")
            if not mem_layer:
                if VIEW_STORE_RE.search(code):
                    flag("R1", "slice view stored to a member outlives the guard")
                elif VIEW_RETURN_RE.search(code):
                    flag("R1", "raw translated pointer returned past the guard")

        # Scope bookkeeping: a guard declared at depth d dies when depth
        # drops below d (its enclosing block closed).
        if spin_decl:
            guards.append(("spin", depth))
        if ebr_decl:
            guards.append(("ebr", depth))
        depth += code.count("{") - code.count("}")
        guards = [g for g in guards if g[1] <= depth]
    return findings


# ----------------------------------------------------- libclang engine --

LIBCLANG_ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "push_back", "emplace_back", "emplace",
    "insert", "resize", "reserve", "append", "make_unique", "make_shared",
}
LIBCLANG_BLOCKING_CALLS = {
    "lock", "wait", "wait_for", "wait_until", "sleep_for", "sleep_until", "join",
}
LIBCLANG_BLOCKING_TYPES = (
    "MutexLock", "WriterLock", "ReaderLock", "unique_lock", "lock_guard",
    "scoped_lock",
)


def load_compile_args(build_dir):
    db = {}
    if not build_dir:
        return db
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        return db
    with open(path, "r", encoding="utf-8") as fh:
        for entry in json.load(fh):
            args = entry.get("arguments")
            if args is None:
                args = entry.get("command", "").split()
            # Drop the compiler, the -c/-o pair and the source file itself.
            cleaned = []
            skip = False
            for a in args[1:]:
                if skip:
                    skip = False
                    continue
                if a in ("-c", "-o"):
                    skip = a == "-o"
                    continue
                if a == entry.get("file") or a.endswith((".cpp", ".cc", ".cxx")):
                    continue
                cleaned.append(a)
            db[os.path.abspath(os.path.join(entry["directory"], entry["file"]))] = cleaned
    return db


def libclang_available():
    try:
        import clang.cindex as ci  # noqa: F401
        ci.Index.create()
        return True
    except Exception:
        return False


def libclang_scan_file_scoped(path, args_db):
    """AST scan with natural C++ scoping: a guard declared mid-compound
    covers its *later siblings* and dies when the compound closes."""
    import clang.cindex as ci

    args = args_db.get(os.path.abspath(path))
    if args is None:
        args = ["-xc++", "-std=c++20", f"-I{os.path.join(REPO, 'src')}"]
    index = ci.Index.create()
    tu = index.parse(path, args=args)
    lines = read_lines(path)
    findings = []
    mem_layer = is_mem_layer(path)
    env_gateway = is_env_gateway(path)
    version_layer = is_version_layer(path)

    def flag(cursor, rule, detail):
        line = cursor.location.line
        if rule not in allowed_rules(lines, line):
            findings.append(Finding(path, line, rule, detail))

    def callee_name(cursor):
        ref = cursor.referenced
        return (ref.spelling if ref is not None and ref.spelling else cursor.spelling) or ""

    def subtree_has_translate(cursor):
        return any(c.kind == ci.CursorKind.CALL_EXPR and callee_name(c) == "translate"
                   for c in cursor.walk_preorder())

    def tsp(cursor):
        try:
            return cursor.type.spelling or ""
        except Exception:
            return ""

    def check_node(node, spin, ebr):
        kind = node.kind
        if kind == ci.CursorKind.CALL_EXPR:
            name = callee_name(node)
            if name == "getenv" and not env_gateway:
                flag(node, "R2", "route environment reads through oak::env")
            if spin and name in LIBCLANG_ALLOC_CALLS:
                flag(node, "R3", f"'{name}' inside a SpinLock window")
            if ebr and name in LIBCLANG_BLOCKING_CALLS:
                flag(node, "R5", f"'{name}()' while pinning an epoch")
        elif kind == ci.CursorKind.CXX_NEW_EXPR and spin:
            flag(node, "R3", "operator new inside a SpinLock window")
        elif kind == ci.CursorKind.MEMBER_REF_EXPR and not version_layer and \
                node.spelling in ("writeVersion", "dataVersion"):
            flag(node, "R6", "raw writeVersion/dataVersion access — stamps are "
                             "owned by value.hpp")
        elif kind == ci.CursorKind.BINARY_OPERATOR:
            kids = list(node.get_children())
            if ebr and not mem_layer and len(kids) == 2 and \
                    kids[0].kind == ci.CursorKind.MEMBER_REF_EXPR:
                ref = kids[0].referenced
                if ref is not None and ref.kind == ci.CursorKind.FIELD_DECL:
                    if subtree_has_translate(kids[1]) or \
                            any(t in tsp(kids[1]) for t in ("OakRBuffer", "ValueRef")):
                        flag(node, "R1",
                             "slice view stored to a member outlives the guard")
            if not mem_layer and not line_is_assertion(lines, node.location.line):
                toks = [t.spelling for t in node.get_tokens()]
                if ("+" in toks or "-" in toks) and "offset" in toks and \
                        any(c.kind == ci.CursorKind.CALL_EXPR and
                            callee_name(c) == "offset" for c in node.walk_preorder()):
                    flag(node, "R4", "dereference refs via MemoryManager::translate")
            if not version_layer and \
                    not line_is_assertion(lines, node.location.line):
                toks = [t.spelling for t in node.get_tokens()]
                if any(op in toks for op in ("+", "-", "^", "&", "|")) and \
                        any(c.kind == ci.CursorKind.CALL_EXPR and
                            callee_name(c) == "version"
                            for c in node.walk_preorder()):
                    flag(node, "R6", "version stamps are opaque — pass "
                                     "Snapshot::version() to snapshotAt() "
                                     "unmodified")
        elif kind == ci.CursorKind.RETURN_STMT and ebr and not mem_layer:
            if subtree_has_translate(node):
                flag(node, "R1", "raw translated pointer returned past the guard")

    def visit(node, spin, ebr):
        """Returns guard increments this node contributes to its *siblings*
        (a VAR_DECL bubbles up through its DECL_STMT wrapper, but nothing
        escapes a compound statement — that is where guard lifetimes end)."""
        d_spin = d_ebr = 0
        if node.kind == ci.CursorKind.VAR_DECL:
            t = tsp(node)
            if "SpinGuard" in t or ("lock_guard" in t and "SpinLock" in t):
                d_spin = 1
            elif "Ebr::Guard" in t:
                d_ebr = 1
            elif ebr and any(b in t for b in LIBCLANG_BLOCKING_TYPES):
                flag(node, "R5", f"'{t}' acquired while pinning an epoch")
        check_node(node, spin, ebr)
        s, e = spin + d_spin, ebr + d_ebr
        acc_s, acc_e = d_spin, d_ebr
        for child in node.get_children():
            ds, de = visit(child, s, e)
            s += ds
            e += de
            acc_s += ds
            acc_e += de
        if node.kind == ci.CursorKind.COMPOUND_STMT:
            return 0, 0
        return acc_s, acc_e

    for top in tu.cursor.get_children():
        if top.location.file and \
                os.path.abspath(top.location.file.name) == os.path.abspath(path):
            visit(top, 0, 0)

    # R7 and R8 are naming-boundary rules, not dataflow properties — the
    # lexical checks are exact, so both engines share them.
    env_restricted = is_env_restricted(path)
    in_block = False
    for lineno, rawline in enumerate(lines, 1):
        code, in_block = strip_code(rawline, in_block)
        if not mem_layer and REF_MAKE_RE.search(code) and \
                "R7" not in allowed_rules(lines, lineno):
            findings.append(Finding(
                path, lineno, "R7",
                "only the allocator mints refs — use the slice refs it"
                " returned (or detail::headerRef for value headers)"))
        if env_restricted and ENV_READ_RE.search(code) and \
                "R8" not in allowed_rules(lines, lineno):
            findings.append(Finding(path, lineno, "R8", ENV_READ_DETAIL))
    return findings


# ---------------------------------------------------------- self-test --

def run_engine(engine, files, build_dir):
    if engine == "textual":
        findings = []
        for f in files:
            findings.extend(textual_scan_file(f))
        return findings
    args_db = load_compile_args(build_dir)
    findings = []
    for f in files:
        findings.extend(libclang_scan_file_scoped(f, args_db))
    return findings


def self_test(engine, build_dir):
    fixture_root = os.path.join(REPO, FIXTURE_DIR)
    fixtures = collect_files([fixture_root], include_fixtures=True)
    fixtures = [f for f in fixtures if os.path.basename(f) != "ts_negative.cpp"
                and os.path.basename(f) != "ts_positive.cpp"]
    if not fixtures:
        print(f"oaklint self-test: no fixtures under {FIXTURE_DIR}", file=sys.stderr)
        return 1
    failures = []
    for f in fixtures:
        lines = read_lines(f)
        expected = set()
        for ln in lines:
            m = EXPECT_RE.search(ln)
            if m:
                expected.add(m.group(1))
        got = run_engine(engine, [f], build_dir)
        got_rules = {x.rule for x in got}
        rel = os.path.relpath(f, REPO)
        if expected:
            missing = expected - got_rules
            extra = got_rules - expected
            if missing:
                failures.append(f"{rel}: expected {sorted(missing)} not flagged")
            if extra:
                failures.append(f"{rel}: unexpected findings {sorted(extra)}: "
                                + "; ".join(str(x) for x in got if x.rule in extra))
        else:  # clean fixture: must produce nothing
            if got:
                failures.append(f"{rel}: expected clean, got "
                                + "; ".join(str(x) for x in got))

    tree_findings = run_engine(engine, collect_files(DEFAULT_ROOTS), build_dir)
    for x in tree_findings:
        failures.append(f"real tree not clean: {x}")

    n_expectations = sum(1 for f in fixtures if any(EXPECT_RE.search(l) for l in read_lines(f)))
    if failures:
        print(f"oaklint self-test ({engine}): FAIL", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print(f"oaklint self-test ({engine}): PASS — {n_expectations} violating "
          f"fixtures flagged, clean fixture quiet, real tree clean "
          f"({len(collect_files(DEFAULT_ROOTS))} files)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help=f"files/dirs to scan (default: {DEFAULT_ROOTS})")
    ap.add_argument("--engine", choices=["auto", "libclang", "textual"], default="auto")
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"),
                    help="where to look for compile_commands.json")
    ap.add_argument("--self-test", action="store_true",
                    help="verify fixtures are flagged and the real tree is clean")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0

    engine = args.engine
    if engine == "auto":
        engine = "libclang" if libclang_available() else "textual"
        if engine == "textual":
            print("oaklint: libclang unavailable, using textual engine",
                  file=sys.stderr)
    elif engine == "libclang" and not libclang_available():
        print("oaklint: --engine libclang requested but python3 clang bindings "
              "are not importable", file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(engine, args.build_dir)

    files = collect_files(args.paths or DEFAULT_ROOTS)
    findings = run_engine(engine, files, args.build_dir)
    for x in findings:
        print(x)
    if findings:
        print(f"oaklint ({engine}): {len(findings)} finding(s) in {len(files)} files",
              file=sys.stderr)
        return 1
    print(f"oaklint ({engine}): clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
