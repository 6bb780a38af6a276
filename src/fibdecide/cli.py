"""Command-line front end: script runner, REPL, reproduction suite,
oracle tables, and DOT export.

Exit codes are a stable contract: 0 all queries TRUE / checks passed,
1 some query FALSE or check failed, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import arith
from . import automata as au
from . import logic
from . import reproduce as repro
from . import seqs

__all__ = ["main", "Store"]


class Store:
    """Directory of .aut files holding the session's named automata."""

    CATALOG_NAMES = [
        "valid", "eq", "lt", "leq", "add", "phin", "phi2n",
        "a007067", "a007064", "a004937", "a003623", "a035487", "fibword",
    ]

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        return self.root / f"{name}.aut"

    def save(self, name: str, aut: au.Automaton) -> None:
        """Replace name.aut whole: a failed write leaves the old file as it was."""
        tmp = self.root / f".{name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(au.serialize(aut))
            os.replace(tmp, self.path(name))
        finally:
            tmp.unlink(missing_ok=True)

    def load(self, name: str) -> au.Automaton | None:
        p = self.path(name)
        if not p.exists():
            return None
        try:
            aut = au.deserialize(p.read_text())
        except au.AutomatonError as exc:
            raise au.AutomatonError(f"{p}: {exc}; --rebuild rebuilds the store") from None
        if aut.is_boolean:
            return au.zero_normalize(aut)
        return au.minimize(aut)

    def names(self):
        return sorted(p.stem for p in self.root.glob("*.aut"))

    def has_catalog(self) -> bool:
        return all(self.path(n).exists() for n in self.CATALOG_NAMES)

    def load_catalog(self) -> arith.BuiltinCatalog:
        cat = arith.BuiltinCatalog()
        for name in self.CATALOG_NAMES:
            cat[name] = self.load(name)
        cat["F"] = cat["fibword"]
        return cat

    def save_catalog(self, cat) -> None:
        for name in self.CATALOG_NAMES:
            self.save(name, cat[name])


def _build_catalog(args) -> arith.BuiltinCatalog:
    store = Store(args.store)
    if store.has_catalog() and not args.rebuild:
        return store.load_catalog()
    cat = arith.build_catalog(progress=_progress(args))
    store.save_catalog(cat)
    return cat


def _progress(args):
    if args.quiet:
        return lambda msg: None
    return lambda msg: print(f"# {msg}", file=sys.stderr)


def _schedule(text):
    return tuple(int(x) for x in text.split(","))


def cmd_run(args) -> int:
    path = Path(args.script)
    if not path.exists():
        print(f"no such script: {path}", file=sys.stderr)
        return 2
    catalog = _build_catalog(args)
    session = logic.Session(catalog)
    report = session.run_script(
        path.read_text(),
        on_result=lambda kind, name, value: print(
            f"{name}: {'TRUE' if value else 'FALSE'}" if kind == "eval"
            else f"{kind} {name}"
        ),
    )
    return 0 if report.all_true else 1


def cmd_repl(args) -> int:
    catalog = _build_catalog(args)
    session = logic.Session(catalog)
    print("fibdecide repl; :quit to leave, :list, :show NAME, :dot NAME FILE")
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        if line in (":quit", ":q"):
            return 0
        try:
            if line == ":list":
                print(" ".join(session.names()))
            elif line.startswith(":show"):
                name = line.split()[1]
                print(au.serialize(session.automaton(name)), end="")
            elif line.startswith(":dot"):
                _, name, out = line.split()
                Path(out).write_text(au.export_dot(session.automaton(name), name))
                print(f"wrote {out}")
            else:
                for kind, name, value in session.run_script(line).results:
                    if kind == "eval":
                        print(f"{name}: {'TRUE' if value else 'FALSE'}")
                    else:
                        print(f"{kind} {name}")
        except Exception as exc:
            print(f"error: {exc}")


def cmd_reproduce(args) -> int:
    store = Store(args.store)
    if args.rebuild:
        for p in store.root.glob("*.aut"):
            p.unlink()
    run = repro.Reproduction(
        schedule=_schedule(args.schedule),
        seed=args.seed,
        progress=_progress(args),
        store=store,
    )
    t0 = time.time()
    results = run.run(on_step=lambda r: print(r.line(), flush=True))
    bad = [r for r in results if not r.ok]
    print(
        f"{len(results) - len(bad)}/{len(results)} checks passed"
        f" in {time.time() - t0:.0f}s"
    )
    for r in bad:
        print(f"FAILED: {r.name}: {r.detail}")
    return 1 if bad else 0


def cmd_oracle_table(args) -> int:
    try:
        orc = seqs.oracle(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.count < 0:
        print(f"error: count must be at least 0, got {args.count}", file=sys.stderr)
        return 2
    vals = orc.table(args.count)
    for n, v in enumerate(vals):
        print(f"{n}\t{int(v)}")
    return 0


def cmd_export_dot(args) -> int:
    store = Store(args.store)
    aut = store.load(args.name)
    if aut is None:
        print(f"no automaton named {args.name!r} in {store.root}", file=sys.stderr)
        return 2
    Path(args.file).write_text(au.export_dot(aut, args.name))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibdecide",
        description="Decision procedure and sequence toolkit for the "
        "Fibonacci (Zeckendorf) numeration system",
    )
    parser.add_argument("--store", default="./store", help="automaton store directory")
    parser.add_argument("--schedule", default="4096,16384,65536,262144",
                        help="synthesis sample schedule")
    parser.add_argument("--seed", type=int, default=20240901,
                        help="seed for randomized property checks")
    parser.add_argument("--rebuild", action="store_true",
                        help="ignore the cached store and re-synthesize")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a script of def/eval/reg/combine commands")
    p.add_argument("script")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("repl", help="interactive query loop")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("reproduce-paper", help="run the full reproduction checklist")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("oracle-table", help="dump n<TAB>value for a named oracle")
    p.add_argument("name")
    p.add_argument("count", type=int)
    p.set_defaults(fn=cmd_oracle_table)

    p = sub.add_parser("export-dot", help="export a stored automaton to DOT")
    p.add_argument("name")
    p.add_argument("file")
    p.set_defaults(fn=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (logic.ParseError, logic.CompileError, au.AutomatonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
