#!/usr/bin/env python3
"""Narrow every `pub` item that no other compilation unit names, with the
compiler as the judge, so `dead_code` can see what nothing uses.

    scripts/narrow_pub.py narrow   rewrite `pub ` as `pub(crate) ` on every
                                   item and field of crates/**/src (not
                                   src/bin, not test modules), after splitting
                                   `pub use a::{X, Y};` into one line per name
    scripts/narrow_pub.py fix      `cargo check` the workspace (all targets)
                                   and benchmark/ (--locked) until no privacy
                                   error is left, putting `pub` back on every
                                   narrowed line a privacy diagnostic names
    scripts/narrow_pub.py fix-runs  `fix`, but the workspace is checked as
                                   --lib --bins: only what runs reach (and
                                   benchmark/) keeps its `pub`
    scripts/narrow_pub.py tidy     drop the `pub(crate) use` re-exports nothing
                                   uses, re-merge the split ones, make
                                   crate-root `pub(crate) mod` plain `mod`,
                                   and run `cargo fmt`
    scripts/narrow_pub.py count    non-test lines of crates/**/src: every line
                                   outside a `#[cfg(test)]` item (all crates,
                                   then without crates/shims)
    scripts/narrow_pub.py writeonly  list the named struct fields of
                                   crates/**/src that no non-test code reads;
                                   exit 1 if one is not in WRITEONLY_KEEP, or
                                   a kept one is read (or gone)

A full pass is `narrow`, `fix`, `tidy` on a clean tree; `git diff` then shows
what it narrowed, and `cargo check --workspace` (the non-test build) lists
what is dead. `fix` may need several runs of up to 40 rounds: rustc reports
one privacy layer per round, and a crate that fails hides its dependents.

`dead_code` counts a use in a test, an example or a bench as a use. To see
what only those name, run `narrow`, `fix-runs`, then `cargo check
--workspace` in a scratch copy: the tests no longer compile there, and what
the check reports is reached by no library, binary or benchmark/ code.

`pub` stays where the compiler needs it: on types a `pub` signature exposes
(the `private_interfaces` / `private_bounds` lints), on re-exported items
(E0364/E0365), on fields another crate names or fills with
`..Default::default()` (E0451), on what `benchmark/src` uses, and on shim
items reached through `$crate::` paths in macro expansions. Three spots get
no diagnostic and are kept by hand (KEEP below).

`dead_code` counts a write as a use, and a test's read as a read, so a field
that only tests read stays invisible to it; `writeonly` lists those. Readers
are the non-test lines of crates/**/src (bins included), the crates'
benches, examples/ and benchmark/src. A field counts as read where `.name`
appears other than as an assignment target or as the receiver of a
`push*`/`record*`/`insert*`/`inc` call, or where a `let` / `match` pattern
of its struct names it. Fields match by name alone, so one read of `.len`
anywhere clears every field called `len`: the list can miss write-only
fields, and a field read only through a macro, a derive or a channel it
pushes into shows up in it. `_`-prefixed fields are held on purpose and
skipped. It changes no file. `scripts/ci.sh` runs it: a new entry is either
deleted or given its reason in WRITEONLY_KEEP.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), '..'))
STATE = os.path.join(ROOT, 'target', 'narrow_pub.json')

# Narrowing these compiles but breaks something no diagnostic points at.
KEEP = [
    # `use proptest::prelude::*` silently skips private names.
    ('crates/shims/proptest/src/prelude.rs', re.compile(r'')),
    # `l25gc_nfv::ring` would resolve to the module, not the function.
    ('crates/nfv/src/lib.rs', re.compile(r'^pub use ring::ring;')),
    # clippy's len_without_is_empty pairs a public `len` with a public
    # `is_empty`.
    ('crates/nfv/src/ring.rs', re.compile(r'^\s*pub fn is_empty\(')),
    ('crates/obs/src/events.rs', re.compile(r'^\s*pub fn is_empty\(')),
]

# The fields `writeonly` lists that stay, each with why.
WRITEONLY_KEEP = {
    'DuplexWorker::complete': 'the worker pushes completions into it; read on the ring\'s far side',
    'Disruption::completions_lost': 'the loss-freedom check',
    'Qer::passed': 'the policer check, folded into the forward_transcript digest',
    'Apps::ue_received': 'integration tests and proptests observe the run through it',
    'RanUe::connected': 'integration tests and proptests observe the run through it',
    'Resilience::checkpoints_deferred': 'integration tests and proptests observe the run through it',
    'TcpReceiver::duplicates': 'integration tests and proptests observe the run through it',
    'ProcedureProfile::messages': 'pinned in calibrated_profiles.txt; deleting it edits that fixture',
    'CpuInfo::siblings': 'one sysfs read per CPU for a #[cfg(test)] SMT check',
}

ITEM = re.compile(r'^(\s*)pub (?=(fn|struct|enum|trait|type|const|static|mod|use|union|unsafe|async|extern)\b)')
FIELD = re.compile(r'^(\s*)pub (?=(r#)?[a-z_][a-z0-9_]*\s*:)')
TUPLE_FIELD = re.compile(r'(?<=[(,] )pub |(?<=\()pub ')
TUPLE_STRUCT = re.compile(r'\bstruct \w+(<[^>]*>)?\(')
USE_LIST = re.compile(r'^([ \t]*)pub use ([\w:]+)::\{([^;{]*?)\};', re.M)
USE_ONE = re.compile(r'^(\s*)(pub(?:\(crate\))?) use ([\w:]+)::(\w+);$')
PRIVACY = {'E0603', 'E0624', 'E0616', 'E0451', 'E0364', 'E0365', 'E0446', 'E0445',
           'private_interfaces', 'private_bounds'}


def rel(p):
    return os.path.relpath(p, ROOT)


def sources(bins=False):
    for root, _, files in os.walk(os.path.join(ROOT, 'crates')):
        if '/src' not in root + '/' or ('/src/bin' in root and not bins):
            continue
        for f in sorted(files):
            if f.endswith('.rs'):
                yield os.path.join(root, f)


def read(path):
    return open(os.path.join(ROOT, path)).read().split('\n')


def write(path, lines):
    open(os.path.join(ROOT, path), 'w').write('\n'.join(lines))


def kept(path, line):
    return any(path == f and pat.search(line) for f, pat in KEEP)


def test_module_start(lines):
    for i, l in enumerate(lines):
        if l.startswith('#[cfg(test)]') and i + 1 < len(lines) and lines[i + 1].startswith('mod '):
            return i
    return len(lines)


def narrow():
    state = {}
    for p in sources():
        path = rel(p)
        text = open(p).read()
        split = USE_LIST.sub(
            lambda m: '\n'.join(f'{m.group(1)}pub use {m.group(2)}::{n.strip()};'
                                for n in m.group(3).replace('\n', ' ').split(',') if n.strip()),
            text)
        lines = split.split('\n')
        changed = []
        in_macro = None
        for i in range(test_module_start(lines)):
            line = lines[i]
            if 'macro_rules!' in line:
                in_macro = 0
            if in_macro is not None:
                in_macro += line.count('{') - line.count('}')
                if in_macro <= 0 and '}' in line:
                    in_macro = None
                continue
            if '$' in line or kept(path, line):
                continue
            new = ITEM.sub(r'\1pub(crate) ', line, count=1)
            if new == line:
                new = FIELD.sub(r'\1pub(crate) ', line, count=1)
            if new == line and TUPLE_STRUCT.search(line):
                new = TUPLE_FIELD.sub('pub(crate) ', line)
            if new != line:
                lines[i] = new
                changed.append(i + 1)
        if split != text or changed:
            write(path, lines)
        if changed:
            state[path] = changed
    os.makedirs(os.path.dirname(STATE), exist_ok=True)
    json.dump(state, open(STATE, 'w'))
    print('narrowed', sum(len(v) for v in state.values()), 'lines')


def diagnostics(args):
    r = subprocess.run(['cargo', 'check', '--keep-going', '--message-format=json'] + args,
                       cwd=ROOT, capture_output=True, text=True)
    out = []
    for line in r.stdout.splitlines():
        try:
            m = json.loads(line)
        except ValueError:
            continue
        if m.get('reason') == 'compiler-message':
            out.append(m['message'])
    return out


def spans(d):
    for s in d.get('spans', []):
        yield s
        e = s.get('expansion')
        while e:
            yield e['span']
            e = e['span'].get('expansion')
    for c in d.get('children', []):
        yield from spans(c)


def span_file(name):
    p = os.path.normpath(name if os.path.isabs(name) else os.path.join(ROOT, name))
    return rel(p) if p.startswith(ROOT + '/') and os.path.exists(p) else None


def narrowed_at(state, path, n):
    return n in state.get(path, ()) and 'pub(crate) ' in read(path)[n - 1]


def crate_of(path):
    return re.match(r'(crates/(shims/)?[^/]+)/', path).group(1)


def find_item(state, name, use_path, use_line):
    """Narrowed definitions of `name`, for a re-export that names it."""
    pat = re.compile(r'^\s*pub\(crate\) (unsafe |async |const )*'
                     r'(struct|enum|trait|type|fn|const|static|mod|union) ' + re.escape(name) + r'\b')
    mods = [m for m in re.findall(r'(\w+)::', use_line) if m not in ('crate', 'self', 'super')]
    for scope in (crate_of(use_path) + '/', 'crates/'):
        hits = [(p, n) for p, ns in state.items() if p.startswith(scope)
                for n in ns if pat.match(read(p)[n - 1])]
        if hits and mods:
            near = [h for h in hits if f'/{mods[-1]}.rs' in h[0] or f'/{mods[-1]}/' in h[0]]
            hits = near or hits
        if hits:
            return hits
    return []


def find_field(state, struct, field):
    """Narrowed `field` lines of every `pub` struct named `struct`."""
    hits = []
    for path in state:
        lines = read(path)
        for i, l in enumerate(lines):
            if not re.search(r'^\s*pub (struct|union) ' + re.escape(struct) + r'\b', l):
                continue
            if field.isdigit():
                hits.append((path, i + 1))
                continue
            for j in range(i + 1, len(lines)):
                if re.match(r'^\s*pub\(crate\) (r#)?' + re.escape(field) + r'\s*:', lines[j]):
                    hits.append((path, j + 1))
                    break
                if lines[j].startswith('}'):
                    break
    return hits


def fix(targets=('--all-targets',), rounds=40):
    state = json.load(open(STATE))
    for it in range(rounds):
        diags = diagnostics(['--workspace', *targets])
        diags += diagnostics(['--locked', '--manifest-path', 'benchmark/Cargo.toml', '--all-targets'])
        todo, unresolved = set(), []
        for d in diags:
            code = (d.get('code') or {}).get('code')
            if code not in PRIVACY:
                if d['level'] == 'error':
                    unresolved.append(d['rendered'])
                continue
            hits = set()
            for s in spans(d):
                path = span_file(s['file_name'])
                if path is None:
                    continue
                lines = range(s['line_start'], s['line_end'] + 1)
                hit = next((n for n in lines if narrowed_at(state, path, n)), None)
                if hit is None:
                    # a name inside a multi-line `use` list
                    for n in range(s['line_start'] - 1, max(0, s['line_start'] - 15), -1):
                        l = read(path)[n - 1]
                        if ';' in l or '}' in l:
                            break
                        if narrowed_at(state, path, n) and 'use ' in l:
                            hit = n
                            break
                if hit is not None:
                    hits.add((path, hit))
            if not hits and code in ('E0616', 'E0451'):
                m = re.search(r'fields? (.*) of (?:struct|union) `([^`]+)` (is|are) private', d['message'])
                if m:
                    struct = m.group(2).split('::')[-1].split('<')[0]
                    for field in re.findall(r'`([^`]+)`', m.group(1)):
                        hits.update(find_field(state, struct, field))
            if not hits and code in ('E0364', 'E0365'):
                m = re.search(r'`([^`]+)` is only public within the crate', d['message'])
                path = span_file(d['spans'][0]['file_name'])
                if m and path:
                    n = d['spans'][0]['line_start']
                    use_line = next((read(path)[k - 1] for k in range(n, max(0, n - 15), -1)
                                     if re.match(r'^\s*pub(\(crate\))? use ', read(path)[k - 1])), '')
                    hits.update(find_item(state, m.group(1), path, use_line))
            if hits:
                todo |= hits
            else:
                unresolved.append(d['rendered'])
        for path, n in sorted(todo):
            lines = read(path)
            lines[n - 1] = lines[n - 1].replace('pub(crate) ', 'pub ')
            write(path, lines)
        print(f'round {it}: {len(todo)} restored, {len(unresolved)} unresolved', flush=True)
        if not todo:
            for u in unresolved[:20]:
                print(u)
            return


def tidy():
    unused = {}
    for d in diagnostics(['--workspace']):
        if (d.get('code') or {}).get('code') == 'unused_imports':
            for s in d['spans']:
                unused.setdefault(span_file(s['file_name']), set()).add(s['line_start'])
    for path, ns in unused.items():
        lines = read(path)
        write(path, [l for n, l in enumerate(lines, 1)
                     if n not in ns or not re.match(r'^\s*pub\(crate\) use [\w:]+;$', l)])
    for p in sources():
        path = rel(p)
        lines, out, i = read(path), [], 0
        while i < len(lines):
            m = USE_ONE.match(lines[i])
            if not m:
                out.append(lines[i])
                i += 1
                continue
            names, j = [m.group(4)], i + 1
            while j < len(lines) and (n := USE_ONE.match(lines[j])) and n.group(1, 2, 3) == m.group(1, 2, 3):
                names.append(n.group(4))
                j += 1
            ind, vis, base = m.group(1, 2, 3)
            out.append(lines[i] if len(names) == 1 else f'{ind}{vis} use {base}::{{{", ".join(names)}}};')
            i = j
        if os.path.basename(p) == 'lib.rs':
            out = [re.sub(r'^pub\(crate\) mod ', 'mod ', l) for l in out]
        if out != lines:
            write(path, out)
    subprocess.run(['cargo', 'fmt', '--all'], cwd=ROOT, check=True)


def code(line):
    """`line` without its comment and with string and char literals blanked."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    return re.sub(r"'(\\.|[^'\\])'", "''", line).split('//')[0]


def non_test(lines):
    """Indices of the lines outside `#[cfg(test)]` items."""
    i = 0
    while i < len(lines):
        if lines[i].strip() != '#[cfg(test)]':
            yield i
            i += 1
            continue
        # skip the attributed item: to its closing brace, or to the
        # `;` / `,` that ends a braceless one
        j, depth, braced = i + 1, 0, False
        while j < len(lines) and lines[j].strip().startswith(('#[', '///')):
            j += 1
        while j < len(lines):
            c = code(lines[j])
            depth += sum(c.count(x) for x in '{([') - sum(c.count(x) for x in '})]')
            braced = braced or '{' in c
            if depth == 0 and (braced or c.rstrip().endswith((';', ','))):
                break
            j += 1
        i = j + 1


def count():
    total = without_shims = 0
    for p in sources(bins=True):
        n = sum(1 for _ in non_test(open(p).read().split('\n')))
        total += n
        if '/shims/' not in p:
            without_shims += n
    print(total, without_shims)


STRUCT = re.compile(r'^\s*(pub(\([^)]*\))? )?struct (\w+)\b[^;(]*\{\s*$')
NAMED_FIELD = re.compile(r'^\s*(pub(\([^)]*\))? )?(\w+)\s*:')
NOT_A_READ = re.compile(r'\s*(\[[^\]]*\]\s*)*([-+*/%&|^]|<<|>>)?=(?!=)'
                        r'|\s*\.\s*(push\w*|record\w*|insert\w*|inc)\s*\(')
PATTERN = re.compile(r'\b(\w+)\s*\{([^{}]*)\}\s*(=>|=(?!=)|\|)')


def writeonly():
    fields = []
    for p in sources():
        lines = open(p).read().split('\n')
        struct = None
        for i in non_test(lines):
            c = code(lines[i])
            if struct is None:
                m = STRUCT.match(c)
                struct = m and m.group(3)
            elif c.strip().startswith('}'):
                struct = None
            elif (m := NAMED_FIELD.match(c)) and not m.group(3).startswith('_'):
                fields.append((rel(p), i + 1, struct, m.group(3)))
    readers = list(sources(bins=True))
    for d in ('examples', 'benchmark/src'):
        readers += [os.path.join(ROOT, d, f) for f in sorted(os.listdir(os.path.join(ROOT, d)))
                    if f.endswith('.rs')]
    for c in sorted(os.listdir(os.path.join(ROOT, 'crates'))):
        b = os.path.join(ROOT, 'crates', c, 'benches')
        if os.path.isdir(b):
            readers += [os.path.join(b, f) for f in sorted(os.listdir(b)) if f.endswith('.rs')]
    read, patterns = set(), []
    for p in readers:
        lines = open(p).read().split('\n')
        text = '\n'.join(code(lines[i]) for i in non_test(lines))
        for m in re.finditer(r'\.\s*(\w+)\b(?!\s*(::\s*<[^>]*>\s*)?\()', text):
            if not NOT_A_READ.match(text, m.end()):
                read.add(m.group(1))
        for m in PATTERN.finditer(text):
            before = text[max(0, m.start() - 12):m.start()]
            if m.group(3) != '=' or re.search(r'\blet\s+$', before):
                patterns.append((m.group(1), set(re.findall(r'\b(\w+)\b', m.group(2)))))
    unread = [f for f in fields
              if f[3] not in read and not any(s == f[2] and f[3] in names for s, names in patterns)]
    listed = set()
    for path, n, struct, field in unread:
        name = f'{struct}::{field}'
        listed.add(name)
        why = WRITEONLY_KEEP.get(name, 'NEW: delete it, or give its reason in WRITEONLY_KEEP')
        print(f'{path}:{n}: {name} ({why})')
    print(len(unread), 'fields no non-test code reads')
    new = listed - WRITEONLY_KEEP.keys()
    stale = WRITEONLY_KEEP.keys() - listed
    for name in sorted(stale):
        print(f'{name}: kept in WRITEONLY_KEEP but no longer listed; drop the entry')
    if new or stale:
        sys.exit(1)


if __name__ == '__main__':
    {'narrow': narrow, 'fix': fix, 'fix-runs': lambda: fix(('--lib', '--bins')),
     'tidy': tidy, 'count': count, 'writeonly': writeonly}[sys.argv[1]]()
