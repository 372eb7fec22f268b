"""Command-line front end.

Two command families:

    elliptic-bailey verify <identity> [flags]   run a verification campaign
    elliptic-bailey eval <function> [flags]     evaluate one special function

Complex numbers on the command line use ``a+bi`` / ``a-bi`` notation with no
spaces, e.g. ``--z 0.5+0.2i``.  Campaign options can also come from an INI
config file (section ``[campaign]``, whose keys are the ``verify`` flags'
destinations, and optional ``[fixed]`` for pinned parameters); explicit flags
override config values, and unknown keys or an ``identity`` other than the
command's are hard errors.  Exit codes: 0 all draws passed, 1 at least one
verification failure, 2 configuration/usage error, 3 internal numerical
non-convergence.  JSON mode (``--json``) emits one report object per line
plus a trailing summary object, all keyed to the versioned schema tag; floats
are hex-encoded so reports round-trip losslessly, and timing is excluded
unless ``--timing`` is given so that reruns with the same seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import functools
import sys

from .bailey_algebra import d_entry, m_entry, _d_rows, _m_rows
from .errors import EllipticBaileyError, QuadratureConvergenceError
from .harness import IDENTITIES, CampaignConfig, run_campaign, summarize
from .special_functions import (
    NomePair,
    elliptic_gamma,
    elliptic_pochhammer,
    gamma_truncation_orders,
    theta,
    theta_truncation_order,
    _pochhammer_grid,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3


class CliError(Exception):
    pass


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` / ``a-bi`` (no spaces); plain reals are accepted too.
    A part that is nan or infinite is refused here, before any arithmetic
    sees it."""
    s = text.strip()
    if " " in s:
        raise CliError(f"complex literal may not contain spaces: {text!r}")
    if s.endswith(("i", "I")):
        s = s[:-1] + "j"
    try:
        value = complex(s)
    except ValueError as exc:
        raise CliError(f"cannot parse complex number {text!r} (use a+bi notation)") from exc
    if not cmath.isfinite(value):
        raise CliError(f"complex number {text!r} is not finite")
    return value


def _complex_arg(text: str) -> complex:
    """:func:`parse_complex` as an argparse type: its error becomes a usage
    error, which exits 2 with the message."""
    try:
        return parse_complex(text)
    except CliError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_bool(text: str) -> bool:
    """configparser's boolean spellings: 1/yes/true/on and 0/no/false/off."""
    state = configparser.ConfigParser.BOOLEAN_STATES.get(text.lower())
    if state is None:
        raise ValueError("not a boolean; use 1/yes/true/on or 0/no/false/off")
    return state


_CAMPAIGN_KEYS = {
    "identity": str,
    "draws": int,
    "seed": int,
    "N": int,
    "tolerance": float,
    "p": parse_complex,
    "q": parse_complex,
    "allow_complex_nomes": _parse_bool,
    "threads": int,
}


def load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive ('N' mirrors the flag)
    read = parser.read(path)
    if not read:
        raise CliError(f"config file not found: {path}")
    allowed_sections = {"campaign", "fixed"}
    unknown_sections = set(parser.sections()) - allowed_sections
    if unknown_sections:
        raise CliError(f"unknown config sections: {sorted(unknown_sections)}")
    out: dict = {}
    if parser.has_section("campaign"):
        for key, raw in parser.items("campaign"):
            if key == "n":
                key = "N"
            if key not in _CAMPAIGN_KEYS:
                raise CliError(f"unknown config key [campaign] {key}")
            try:
                out[key] = _CAMPAIGN_KEYS[key](raw)
            except (ValueError, CliError) as exc:
                raise CliError(f"bad value for [campaign] {key}: {raw!r} ({exc})") from exc
    if parser.has_section("fixed"):
        out["fixed"] = {k: parse_complex(v) for k, v in parser.items("fixed")}
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    most of a zero-draw campaign.  Parsing leaves it unchanged, since each
    parse fills a fresh namespace and every default is None or False."""
    top = argparse.ArgumentParser(
        prog="elliptic-bailey",
        description="Verify elliptic Bailey-lemma identities to floating-point tolerance.",
        epilog="Complex arguments use a+bi notation without spaces, e.g. 0.5-0.2i.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification campaign")
    ver.add_argument("identity", choices=IDENTITIES)
    ver.add_argument("--config", help="INI config file ([campaign] section)")
    ver.add_argument("--draws", type=int)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--N", type=int, dest="N")
    ver.add_argument("--tol", type=float, dest="tolerance", help="override the pass tolerance")
    ver.add_argument("--p", type=_complex_arg, help="fix the nome p (a+bi)")
    ver.add_argument("--q", type=_complex_arg, help="fix the nome q (a+bi)")
    ver.add_argument("--complex-nomes", action="store_true", dest="allow_complex_nomes",
                     default=None, help="sample complex nomes instead of real defaults")
    ver.add_argument("--threads", type=int,
                     help="threads for the per-draw runner calls; sampling and every chunk pass, "
                          "the residue-reduction, star-triangle and beta-integral checks among "
                          "them, run in the calling thread (capped by ELLIPTIC_BAILEY_THREADS)")
    ver.add_argument("--json", action="store_true", help="line-delimited JSON reports + summary")
    ver.add_argument("--timing", action="store_true", help="include wall time in JSON output")
    ver.add_argument("-v", "--verbose", action="store_true")

    ev = sub.add_parser("eval", help="evaluate one special function")
    ev.add_argument("function", choices=["gamma", "theta", "pochhammer", "m-entry", "d-entry"])
    ev.add_argument("--z", type=_complex_arg)
    ev.add_argument("--p", type=_complex_arg, required=True)
    ev.add_argument("--q", type=_complex_arg)
    ev.add_argument("--n", type=int, help="pochhammer order (may be negative)")
    ev.add_argument("--N", type=int)
    ev.add_argument("--m", type=int)
    ev.add_argument("--a", type=_complex_arg)
    ev.add_argument("--k", type=_complex_arg)
    ev.add_argument("--b", type=_complex_arg)
    ev.add_argument("--c", type=_complex_arg)
    return top


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise CliError(f"missing required arguments: {', '.join('--' + n for n in missing)}")


def cmd_eval(args) -> int:
    fn = args.function
    if fn == "theta":
        _require(args, ["z"])
        val = theta(args.z, args.p)
        print(f"theta({_fmt(args.z)}; {_fmt(args.p)}) = {_fmt(val)}")
        print(f"  [q-pochhammer order {theta_truncation_order(args.z, args.p)}]")
        return EXIT_OK
    _require(args, ["q"])
    nome = NomePair(args.p, args.q)
    if fn == "gamma":
        _require(args, ["z"])
        val = elliptic_gamma(args.z, nome)
        terms, shifts = gamma_truncation_orders(args.z, nome)
        print(f"gamma({_fmt(args.z)}; {_fmt(nome.p)}, {_fmt(nome.q)}) = {_fmt(val)}")
        print(f"  [truncation orders: {terms} series terms, {shifts} theta shifts]")
    elif fn == "pochhammer":
        _require(args, ["z", "n"])
        val = elliptic_pochhammer(args.z, args.n, nome)
        print(f"theta({_fmt(args.z)})_{args.n} = {_fmt(val)}")
        # the factors theta(z q^j; p), j < n, or theta(z q^j; p), n <= j < 0
        base = args.z if args.n >= 0 else args.z * nome.q**args.n
        _print_theta_order(([base], [abs(args.n)]), nome)
    elif fn == "m-entry":
        _require(args, ["N", "m", "a", "k"])
        val = m_entry(args.N, args.m, args.a, args.k, nome)
        print(f"M[{args.N}, {args.m}]({_fmt(args.a)}, {_fmt(args.k)}) = {_fmt(val)}")
        if args.m <= args.N:  # an entry above the diagonal is 0 without a theta call
            _print_theta_order(_m_rows(args.N, args.a, args.k, nome.q), nome)
    elif fn == "d-entry":
        _require(args, ["m", "a", "b", "c"])
        val = d_entry(args.m, args.a, args.b, args.c, nome)
        print(f"D_{args.m}({_fmt(args.a)}; {_fmt(args.b)}, {_fmt(args.c)}) = {_fmt(val)}")
        _print_theta_order(_d_rows(args.m, args.a, args.b, args.c, nome.q), nome)
    return EXIT_OK


def _print_theta_order(rows, nome: NomePair) -> None:
    """Print the truncation order of the one theta call made on a Pochhammer
    table's (base points, lengths); nothing when the table has no factor."""
    grid, used = _pochhammer_grid(*rows, nome.q)
    if used.any():
        order = theta_truncation_order(grid[used], nome.p)
        print(f"  [theta factors truncated at order {order}]")


def _fmt(v) -> str:
    v = complex(v)
    if v.imag == 0:
        return repr(v.real)
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real!r}{sign}{abs(v.imag)!r}i"


def cmd_verify(args) -> int:
    settings: dict = {}
    if args.config:
        settings.update(load_config_file(args.config))
        if settings.get("identity", args.identity) != args.identity:
            raise CliError(f"config file sets identity {settings['identity']} "
                           f"but the command runs {args.identity}")
    for key in _CAMPAIGN_KEYS:
        val = getattr(args, key)
        if val is not None:
            settings[key] = val
    try:
        config = CampaignConfig.from_mapping(settings)
    except EllipticBaileyError as exc:
        raise CliError(str(exc)) from exc

    reports = run_campaign(config)
    summary = summarize(reports)

    if args.json:
        for rep in reports:
            print(rep.to_json(include_timing=args.timing))
        print(summary.to_json())
    else:
        _print_table(reports, summary, verbose=args.verbose)

    if any(r.error is not None and r.error.startswith("non-convergence") for r in reports):
        return EXIT_NONCONVERGENCE
    if summary.n_pass < summary.n_reports:
        return EXIT_FAIL
    return EXIT_OK


def _print_table(reports, summary, verbose=False):
    print(f"identity: {summary.identity}")
    print(f"{'draw':>5s}  {'residual':>12s}  {'tolerance':>10s}  result")
    for rep in reports:
        res = f"{rep.residual:.3e}" if rep.error is None else "--"
        label = "pass" if rep.passed else ("error" if rep.error else "FAIL")
        line = f"{str(rep.draw_index):>5s}  {res:>12s}  {rep.tolerance:>10.1e}  {label}"
        if rep.error and verbose:
            line += f"  ({rep.error})"
        print(line)
    print(
        f"summary: {summary.n_pass}/{summary.n_reports} passed, "
        f"max residual {summary.max_residual:.3e}, "
        f"median {summary.median_residual:.3e}, "
        f"{summary.rejected_draws} rejected draws"
    )
    if summary.n_error:
        print(f"         {summary.n_error} draws errored")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches the config-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_eval(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except EllipticBaileyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
