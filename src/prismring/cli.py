"""Command-line interface: catalog, verification, criteria, localization.

Exit codes: 0 success; 1 usage or input error; 2 resource-cap error;
3 when --fail-on-witness / --fail-on-excluded triggers. Reports print as
text by default, or as a schema-versioned JSON envelope with --json. No
environment variable is read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .catalog import CATALOG_NAMES, catalog
from .chartab import (
    DegenerateCombinationError,
    NotCommutativeError,
    character_table,
    column_zero_property,
    lifting_verdict,
)
from .fields import GF, NonInvertibleError, QQ
from .groebner import (DEFAULT_PAIR_BUDGET, DEFAULT_TERM_BUDGET, GroebnerResourceError,
                       buchberger)
from .localizer import (
    EXCLUDED,
    LocalizationError,
    generate_Ek,
    generate_full,
    maximal_sprime_candidates,
    two_parallel,
)
from .poly import format_field, format_polynomial, parse_field, read_system, write_system
from .rings import (
    PowerIterationError,
    RingFormatError,
    fpdim_data,
    parse_ring,
    serialize_ring,
    verify_axioms,
)
from .spectra import criterion_search
from .tpegen import TpeError, localization_system, tpe_system

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_TRIGGER = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_ring(spec_arg):
    """Ring from a JSON file path, 'catalog:NAME', or bare catalog name."""
    if spec_arg.startswith("catalog:"):
        name = spec_arg.split(":", 1)[1]
        try:
            return catalog(name), f"catalog:{name}".encode()
        except KeyError as exc:
            raise CliError(str(exc)) from None
    if os.path.exists(spec_arg):
        with open(spec_arg, "rb") as fh:
            data = fh.read()
        try:
            return parse_ring(data.decode("utf-8")), data
        except RingFormatError as exc:
            raise CliError(f"bad ring document: {exc}") from None
    if spec_arg in CATALOG_NAMES:
        return catalog(spec_arg), f"catalog:{spec_arg}".encode()
    raise CliError(f"no such file or catalog ring: {spec_arg}")


def _envelope(command, payload, digest_src, t0, seed=None):
    return {
        "report": "report.v1",
        "version": __version__,
        "command": command,
        "input_digest": hashlib.sha256(digest_src).hexdigest() if digest_src else None,
        "seed": seed,
        "timings": {"wall_s": round(time.perf_counter() - t0, 3)},
        "result": payload,
    }


def _emit(args, command, payload, digest_src, t0, seed=None, text=None):
    if getattr(args, "json", False):
        print(json.dumps(_envelope(command, payload, digest_src, t0, seed), indent=2))
    else:
        print(text if text is not None else json.dumps(payload, indent=2))


def _split_labels(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _chosen_subset(ring, k, text):
    """The ``--sprime`` labels, or by default the first maximal chosen subset
    of k. There always is one: the unit alone is a valid chosen subset."""
    if text:
        return _split_labels(text)
    return maximal_sprime_candidates(ring, k)[0]


# ------------------------------------------------------------ subcommands


def cmd_catalog(args):
    t0 = time.perf_counter()
    if args.action == "list":
        payload = {"rings": list(CATALOG_NAMES)}
        _emit(args, "catalog", payload, b"catalog", t0, text="\n".join(CATALOG_NAMES))
        return EXIT_OK
    if not args.name:
        raise CliError("catalog show needs a ring name")
    try:
        ring = catalog(args.name)
    except KeyError as exc:
        raise CliError(exc.args[0])
    sys.stdout.write(serialize_ring(ring))
    return EXIT_OK


def cmd_verify(args):
    t0 = time.perf_counter()
    ring, raw = _load_ring(args.ring)
    report = verify_axioms(ring)
    lines = [f"ring {ring.name}: rank {ring.rank}"]
    for c in report.checks:
        status = "ok" if c.passed else f"FAIL at {c.witness} ({c.detail}; values {c.values})"
        lines.append(f"  {c.name}: {status}")
    lines.append("all axioms hold" if report.passed else "axioms FAILED")
    _emit(args, "verify", report.as_dict(), raw, t0, text="\n".join(lines))
    # axiom failures are data in the report, not a command error
    return EXIT_OK


def cmd_info(args):
    t0 = time.perf_counter()
    ring, raw = _load_ring(args.ring)
    report = verify_axioms(ring)
    fp = fpdim_data(ring)
    payload = {
        "name": ring.name,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "dual": {ring.labels[i]: ring.labels[ring.star[i]] for i in range(ring.rank)},
        "axioms_pass": report.passed,
        "commutative": ring.is_commutative(),
        "integral": fp.integral,
        "dims": list(fp.dims),
        "fpdim": fp.global_fpdim,
        "type": [list(t) for t in fp.type_partition],
    }
    text = "\n".join(
        [
            f"name: {payload['name']}",
            f"rank: {payload['rank']}",
            f"labels: {' '.join(ring.labels)}",
            f"duals: {' '.join(f'{a}->{b}' for a, b in payload['dual'].items())}",
            f"axioms: {'pass' if report.passed else 'FAIL'}",
            f"commutative: {payload['commutative']}",
            f"integral: {payload['integral']}",
            f"dims: {payload['dims']}",
            f"FPdim: {payload['fpdim']}",
            f"type: {payload['type']}",
        ]
    )
    _emit(args, "info", payload, raw, t0, text=text)
    return EXIT_OK


def cmd_chartab(args):
    t0 = time.perf_counter()
    ring, raw = _load_ring(args.ring)
    try:
        table = character_table(ring, tol=args.tol)
    except DegenerateCombinationError as exc:
        raise CliError(str(exc), EXIT_RESOURCE)
    payload = {
        "labels": list(ring.labels),
        "residual": table.residual,
        "values": [
            [[x.real, x.imag] for x in row] for row in table.values
        ],
        "column_zero_property": column_zero_property(table),
    }
    if args.lifting:
        if fpdim_data(ring).integral:
            v = lifting_verdict(ring, table, char0_excluded=args.char0_excluded)
            payload["lifting"] = {
                "column_zero_ok": v.column_zero_ok,
                "prime_cover_ok": v.prime_cover_ok,
                "prime_witnesses": [
                    {"prime": p, "label": lab} for p, lab in v.prime_witnesses
                ],
                "char0_excluded": v.char0_excluded,
                "conclusion": v.conclusion,
            }
    width = 11
    lines = ["  ".join(f"{lab:>{width}}" for lab in [""] + list(ring.labels))]
    for i, lab in enumerate(ring.labels):
        cells = []
        for x in table.values[i]:
            if abs(x.imag) < 1e-9:
                cells.append(f"{x.real:>{width}.6f}")
            else:
                cells.append(f"{x.real:.3f}{x.imag:+.3f}i".rjust(width))
        lines.append("  ".join([f"{lab:>{width}}"] + cells))
    lines.append(f"residual: {table.residual:.3e}")
    lines.append(f"every non-Perron column has a zero: {payload['column_zero_property']}")
    if "lifting" in payload:
        lines.append(f"lifting conclusion: {payload['lifting']['conclusion']}")
    _emit(args, "chartab", payload, raw, t0, seed=table.seed, text="\n".join(lines))
    return EXIT_OK


def cmd_criteria(args):
    t0 = time.perf_counter()
    ring, raw = _load_ring(args.ring)
    kinds = ["zero", "one"] if args.kind == "both" else [args.kind]
    found = {}
    for kind in kinds:
        if args.all_witnesses:
            found[kind] = [w.as_dict() for w in criterion_search(ring, kind, True)]
        else:
            w = criterion_search(ring, kind)
            found[kind] = [w.as_dict()] if w else []
    payload = {"kinds": kinds, "witnesses": found}
    lines = []
    any_witness = False
    for kind in kinds:
        ws = found[kind]
        if not ws:
            lines.append(f"{kind}-spectrum criterion: no witness")
            continue
        any_witness = True
        lines.append(f"{kind}-spectrum criterion: {len(ws)} witness(es)")
        for w in ws:
            nonet = " ".join(f"{k}={v}" for k, v in w["nonet"].items())
            lines.append(f"  {nonet}")
            if w["spectrum_element"]:
                lines.append(f"    spectrum element: {w['spectrum_element']}")
            lines.append(f"    routes: {w['routes']}")
    if any_witness:
        lines.append("verdict: not categorifiable (obstruction witness found)")
    _emit(args, "criteria", payload, raw, t0, text="\n".join(lines))
    if any_witness and args.fail_on_witness:
        return EXIT_TRIGGER
    return EXIT_OK


def _parse_field_arg(text):
    text = text.strip()
    if text in ("Q", "QQ", "0"):
        return QQ
    if text.startswith("GF(") and text.endswith(")"):
        return parse_field(text)
    if text.isdigit():
        return GF(int(text))
    raise CliError(f"bad field {text!r}; use Q or GF(p)")


def _write_system_file(args, text, count):
    """Write a system file to ``-o`` (and say so) or to stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {count} equations to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_localize(args):
    ring, _ = _load_ring(args.ring)
    sprime = _chosen_subset(ring, args.k, args.sprime)
    generate = generate_full if args.full else generate_Ek
    system = generate(ring, args.k, sprime)
    prefixes = args.alias_prefixes.split(",")
    ok = len(prefixes) == 2 and all(prefixes) and prefixes[0] != prefixes[1]
    alias = system.alias_table(*prefixes) if ok else {}
    if not ok or len(set(alias.values())) < len(alias):  # x,x1: x10 twice
        raise CliError(
            f"--alias-prefixes {args.alias_prefixes!r}: give two distinct non-empty "
            "prefixes whose aliases do not collide, such as u,v"
        )
    comments = [
        f"ring {ring.name}, subsystem {system.tag}",
        f"support {' '.join(system.support)}",
        f"chosen {' '.join(system.chosen)}",
        "aliases " + " ".join(f"{alias[v]}={v}" for v in system.variables),
    ] + [f"eq {i}: {' '.join(p)}" for i, p in enumerate(system.provenance)]
    text = write_system(system.polys, system.variables, QQ, comments=comments)
    return _write_system_file(args, text, len(system.polys))


def cmd_two_parallel(args):
    t0 = time.perf_counter()
    ring, raw = _load_ring(args.ring)
    field = _parse_field_arg(args.field)
    try:
        rep = two_parallel(
            ring,
            args.k,
            args.l,
            field=field,
            sprime_k=_split_labels(args.sprime_k) if args.sprime_k else None,
            sprime_l=_split_labels(args.sprime_l) if args.sprime_l else None,
        )
    except NonInvertibleError as exc:
        raise CliError(f"field specialization failed: {exc}")
    payload = {
        "verdict": rep.verdict,
        "field": format_field(field),
        "k": rep.k_system.tag,
        "l": rep.l_system.tag,
        "sprime_k": list(rep.k_system.chosen),
        "sprime_l": list(rep.l_system.chosen),
        "gb_sizes": {"k": rep.gb_k_size, "l": rep.gb_l_size},
        "final_basis": list(rep.final_basis),
        "corank": rep.corank,
        "certified": rep.certified,
        "stats": rep.stats,
        "timings": {k: round(v, 3) for k, v in rep.timings.items()},
    }
    text = "\n".join(
        [
            f"verdict: {rep.verdict}",
            f"final reduced basis: {list(rep.final_basis)}",
            f"subsystem basis sizes: {rep.gb_k_size}, {rep.gb_l_size}",
            f"corank: {rep.corank}",
            f"certified: {rep.certified}",
            f"timings: {payload['timings']}",
        ]
    )
    _emit(args, "two-parallel", payload, raw, t0, text=text)
    if rep.verdict == EXCLUDED and args.fail_on_excluded:
        return EXIT_TRIGGER
    return EXIT_OK


def cmd_tpe(args):
    ring, _ = _load_ring(args.ring)
    family = {"--family": args.family, "--k": args.k, "--l": args.l,
              "--sprime": args.sprime, "--sprime-l": args.sprime_l}
    given = [flag for flag, value in family.items() if value]
    if args.labels and given:
        raise CliError(f"--labels conflicts with {', '.join(given)}")
    if args.family == "localization":
        if not args.k:
            raise CliError("--family localization needs --k")
        sprime = _chosen_subset(ring, args.k, args.sprime)
        sprime_l = _split_labels(args.sprime_l) if args.sprime_l else None
        system = localization_system(ring, args.k, sprime, args.l, sprime_l)
        legend = [f"identification: localization subsystem {args.k}"]
    else:
        if not args.labels:
            raise CliError("--labels or --family localization is required")
        system = tpe_system(ring, _split_labels(args.labels))
        legend = ["identification: least-orbit tetra tuples (symmetric gauge)"]
    comments = [f"ring {ring.name}"] + legend
    text = write_system(system.polys, system.variables, QQ, comments=comments)
    return _write_system_file(args, text, len(system.polys))


def cmd_groebner(args):
    t0 = time.perf_counter()
    try:
        with open(args.system) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(str(exc))
    try:
        polys, vars, field = read_system(text)
    except ValueError as exc:
        raise CliError(f"bad system file: {exc}")
    polys = [p.with_order(args.order) for p in polys]
    gb = buchberger(polys, order=args.order, field=field,
                    pair_budget=args.pair_budget, term_budget=args.term_budget)
    payload = {
        "order": args.order,
        "size": len(gb),
        "trivial": gb.is_trivial,
        "basis": [format_polynomial(p) for p in gb.polys],
        "stats": gb.stats,
    }
    if args.quotient_dim:
        q = gb.quotient_dimension()
        payload["quotient_dimension"] = None if q == float("inf") else int(q)
    lines = [write_system(gb.polys, vars, field).rstrip()]
    lines.append(f"# size {len(gb)}, trivial {gb.is_trivial}")
    if args.quotient_dim:
        lines.append(f"# quotient dimension: {payload['quotient_dimension']}")
    _emit(args, "groebner", payload, text.encode(), t0, text="\n".join(lines))
    return EXIT_OK


def _positive_int(text):
    """argparse type of the budget flags: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="prism",
        description="Exact fusion-ring toolkit: obstructions, localization, prism equations",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON report envelope")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in rings or show one")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="check the fusion ring axioms")
    p.add_argument("ring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("info", help="rank, duals, dimensions, type")
    p.add_argument("ring")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("chartab", help="character table of a commutative ring")
    p.add_argument("ring")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--lifting", action="store_true", help="include the lifting verdict")
    p.add_argument(
        "--char0-excluded",
        action="store_true",
        help="assert a characteristic-zero exclusion for the lifting verdict",
    )
    p.set_defaults(func=cmd_chartab)

    p = sub.add_parser("criteria", help="zero/one spectrum obstruction search")
    p.add_argument("ring")
    p.add_argument("--kind", choices=["zero", "one", "both"], default="both")
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument(
        "--fail-on-witness",
        action="store_true",
        help="exit with code 3 when a witness exists",
    )
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("localize", help="emit a localization system file")
    p.add_argument("ring")
    p.add_argument("--k", required=True)
    p.add_argument("--sprime", help="comma-separated chosen subset")
    p.add_argument("--full", action="store_true", help="three-argument system")
    p.add_argument("--alias-prefixes", default="u,v")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("two-parallel", help="linked two-subsystem exclusion pipeline")
    p.add_argument("ring")
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--sprime-k")
    p.add_argument("--sprime-l")
    p.add_argument("--fail-on-excluded", action="store_true")
    p.set_defaults(func=cmd_two_parallel)

    p = sub.add_parser("tpe", help="emit triangular-prism equations")
    p.add_argument("ring")
    p.add_argument("--labels", help="comma-separated label subset")
    p.add_argument("--family", choices=["localization"], default=None)
    p.add_argument("--k")
    p.add_argument("--l")
    p.add_argument("--sprime")
    p.add_argument("--sprime-l")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tpe)

    p = sub.add_parser("groebner", help="reduced basis of a system file")
    p.add_argument("system")
    p.add_argument("--order", choices=["grevlex", "lex"], default="grevlex")
    p.add_argument("--quotient-dim", action="store_true")
    p.add_argument("--pair-budget", type=_positive_int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--term-budget", type=_positive_int, default=DEFAULT_TERM_BUDGET)
    p.set_defaults(func=cmd_groebner)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (RingFormatError, LocalizationError, NotCommutativeError, TpeError,
            NonInvertibleError, PowerIterationError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GroebnerResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
