"""Command-line interface: verification runner and data exports.

Subcommands
-----------
verify    run the invariant suites (exit 0 all-pass, 1 otherwise)
spectrum  eigenvalues with multiplicities of a named operator at fixed j
basis     vectors and labels of the M/F/G/Z families
poly      recurrence tables, grid values, weights, parameters
overlaps  the F/Z overlap matrix by either construction

Common flags (per subcommand): --format {json,csv,table}, --output PATH.
verify also takes --tolerance-scale FLOAT; with --output it writes JSON
unless --format says otherwise, and prints its table to stdout too.  JSON
is the canonical machine format: every export is wrapped in an envelope
{schema_version, kind, metadata, payload} with complex numbers as
[re, im] pairs.  The payloads hold the library's own complex arrays (a
basis's coefficients, an overlap matrix), and the JSON writer renders their
[re, im] pairs itself, one outermost row at a time, so no export copies a
whole basis.  Exports are deterministic byte-for-byte across runs.  The CSV
and the table render one sequence of raw rows per command; both are
written one row at a time, a basis row from _pairs of its one column.

Exit codes: 0 success, 1 verification failure, 2 usage error or unwritable --output.
"""

import argparse
import functools
import itertools
import json
import math
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii

import numpy as np

from . import antikrawtchouk as ak
from . import eigenbases as eb
from .errors import ContractViolation, VerificationError
from .harmonics import HarmonicSpace
from .operators import hamiltonian, j3, spectrum
from .susy import casimir, supercharge, supercharge_alt, symmetry_generator
from .verification import SUITES, run_verification

__all__ = ["main", "entry", "build_parser"]

SCHEMA_VERSION = "1"

_CONVENTIONS = {
    "index_ordering": "coefficients over Y_j^m with m ascending; flat index i = m + j",
    "m_basis_order": "epsilon=+1 chain for m=0..j, then epsilon=-1 chain for m=1..j",
    "phase_rule": {
        "M": "M_j^{m,eps} = (Y_j^{-m} + i eps Y_j^m) / sqrt(2), so M_j^{0,+1} = (1 + i) Y_j^0 / sqrt(2)",
        "F": "vector k = a M_j^{k+1,(-1)^k} + i (-1)^(j+k+1) b M_j^{k,(-1)^k} with a >= 0 and b > 0",
        "G": "vector k = a M_j^{k+1,(-1)^k} + i (-1)^(j+k) b M_j^{k,(-1)^k} with a > 0 and b > 0",
        "Z": "Z_j^k = sum_n W[n,k] F_j^n, W real, sign W[0,k] = (-1)^(j/2) (j even), (-1)^((j+1)/2+k) (j odd)",
    },
    "condon_shortley": True,
    "complex_format": "[re, im]",
}


def _pairs(a):
    """A complex array as a real array whose last axis holds [re, im]."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1)


def _sparse_rows(flat, template):
    """Each row of the 2-d float or complex array flat filled into template,
    a complex entry as its [re, im] pair, as the all-0.0 row text with the
    repr of each part that is nonzero or carries the sign bit (-0.0) spliced
    in at its placeholder.  Each part is gathered from the .real or .imag
    view of its entry: no pairs array is made."""
    pieces = template.split("%r")
    zero = "0.0".join(pieces)
    starts = np.cumsum([len(p) + 3 for p in pieces[:-1]]) - 3
    parts = (flat.real, flat.imag) if flat.dtype.kind == "c" else (flat,)
    mask = np.stack([(p != 0) | np.signbit(p) for p in parts], -1).reshape(len(flat), -1)
    rows, cols = np.nonzero(mask)
    bounds = np.searchsorted(rows, np.arange(len(flat) + 1)).tolist()
    entry = cols // len(parts)
    at = starts[cols].tolist()
    values = np.choose(cols % len(parts), [p[rows, entry] for p in parts]).tolist()
    for b0, b1 in zip(bounds, bounds[1:]):
        text, last = [], 0
        for a, v in zip(at[b0:b1], values[b0:b1]):
            text += (zero[last:a], repr(v))
            last = a + 3
        text.append(zero[last:])
        yield "".join(text)


def _json_scalar(obj):
    """obj as json.dumps spells it, with no encoder built for the common
    scalars: None, bools, str (ASCII-escaped, as json's default), int and
    finite float.  float.__repr__, not repr, keeps a numpy float bare, as
    json does; anything else goes to json.dumps."""
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    return json.dumps(obj)


def _json_chunks(obj, level=0):
    """obj in the layout json.dumps gives it with an indent of 2, byte for
    byte, where every ndarray counts as its tolist() and a complex one as
    the tolist() of its [re, im] pairs (shape + (2,)), as a stream of strings.

    json renders indented output with its pure-Python encoder, one call per
    value.  A finite float or complex array is instead yielded one outermost
    row at a time, filled into one template of the row's layout whose %r
    renders each float with float.__repr__ (json's spelling of finite
    floats); the template joins its placeholders one axis at a time from the
    innermost out, a complex array's [re, im] axis first.  A 1-d array is one
    row: the whole array is one template, filled once.  Each row's values
    are read from the row itself, a complex row through a float view of it
    (of a contiguous copy of that one row where it is strided), so no copy
    of the whole array is made.  An array with at most a quarter of its
    float parts nonzero (an F, G or M basis row has at most 4 nonzero
    complex entries of 2j+1) fills it by _sparse_rows instead, which is
    faster there and slower on dense arrays.  Other arrays, and arrays
    holding NaN or infinities, go through the generic path as lists, a
    complex one as its _pairs.  Scalars are spelled by _json_scalar.
    """
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc" and obj.ndim and obj.size and np.isfinite(obj).all():
            parts = (obj.real, obj.imag) if obj.dtype.kind == "c" else (obj,)
            shape = obj.shape + (2,) * (len(parts) - 1)
            vector = obj.ndim == 1
            strs = ["%r"] * (obj.size * len(parts) // (1 if vector else len(obj)))
            for axis in range(len(shape) - 1, -1 if vector else 0, -1):
                sub = "\n" + "  " * (level + axis + 1)
                head, sep, tail = "[" + sub, "," + sub, "\n" + "  " * (level + axis) + "]"
                strs = [head + sep.join(r) + tail for r in zip(*[iter(strs)] * shape[axis])]
            if vector:
                flat = obj if len(parts) == 1 else np.ascontiguousarray(obj).view(parts[0].dtype)
                yield strs[0] % tuple(flat.tolist())
                return
            if 4 * sum(map(np.count_nonzero, parts)) > obj.size * len(parts):
                # a complex row as the float view of its [re, im] values; a float row as it is
                source = obj if len(parts) == 1 else (row.ravel().view(parts[0].dtype) for row in obj)
                rows = (strs[0] % tuple(row.ravel().tolist()) for row in source)
            else:
                rows = _sparse_rows(obj.reshape(len(obj), -1), strs[0])
            for i, text in enumerate(rows):
                yield ("[" if i == 0 else ",") + inner + text
            yield "\n" + "  " * level + "]"
            return
        obj = (_pairs(obj) if obj.dtype.kind == "c" else obj).tolist()
    if isinstance(obj, dict):
        brackets = "{}"
        items = [(encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k)) + ": ", v)
                 for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [("", v) for v in obj]
    else:
        yield _json_scalar(obj)
        return
    for i, (key, v) in enumerate(items):
        yield (brackets[0] if i == 0 else ",") + inner + key
        yield from _json_chunks(v, level + 1)
    yield "\n" + "  " * level + brackets[1] if items else brackets


def _envelope(kind, metadata, payload):
    meta = dict(metadata)
    meta["conventions"] = _CONVENTIONS
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "metadata": meta,
        "payload": payload,
    }


def _csv_text(header, rows):
    """The header and rows as CSV, yielded one line at a time: a float cell
    as format(v, ".17g"), None as an empty cell, any other cell by str."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in itertools.chain([header], rows):
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


class _Dash:
    """An absent table value: a dash, right-aligned in its field's width."""

    def __format__(self, spec):
        return "-".rjust(len(format(0.0, spec)))


def _grid(head_lines, template):
    """A table function: head_lines, then template filled with each row by
    str.format, a None cell printed as a dash, one line at a time."""
    def table(rows):
        yield from head_lines
        for row in rows:
            yield template.format(*(_Dash() if v is None else v for v in row))

    return table


def _deliver(args, chunks) -> None:
    """Write the chunks, as they come, to --output or stdout, and end the
    text with a newline."""
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout) as fh:
        last = ""
        for last in chunks:
            fh.write(last)
        fh.write("" if last.endswith("\n") else "\n")


def _emit(args, kind, metadata, payload, header, rows, table) -> None:
    """Render and deliver one export: payload() for JSON, or the raw rows()
    as CSV under header or as table(rows) lines; only what the requested
    format needs is called, and every format is delivered as it renders."""
    if args.format == "json":
        chunks = _json_chunks(_envelope(kind, metadata, payload()))
    elif args.format == "csv":
        chunks = _csv_text(header, rows())
    else:
        chunks = (line + "\n" for line in table(rows()))
    _deliver(args, chunks)


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    report = run_verification(
        j_max=args.jmax, suite_filter=args.suite, tolerance_scale=args.tolerance_scale
    )
    metadata = {
        "j_max": args.jmax,
        "suite": args.suite or "all",
        "tolerance_scale": args.tolerance_scale,
    }

    def rows():
        return [(c.name, "pass" if c.passed else "fail", c.residual, c.tolerance, c.detail)
                for c in report.checks]

    args.format = args.format or ("json" if args.output else "table")
    _emit(args, "report", metadata, report.as_dict, ["check", "status", "residual", "tolerance", "detail"],
          rows, lambda rows: report.table_lines())
    if args.output:
        print(f"report written to {args.output}")
        print("\n".join(report.table_lines()))
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# spectrum

_OPERATOR_NAMES = ("H", "Q", "Qalt", "K1", "K2", "K3", "C", "J3")


def _named_operator(name, space):
    """Build only the named operator."""
    if name in ("K1", "K2", "K3"):
        return symmetry_generator(int(name[1]), space)
    builders = {"H": hamiltonian, "Q": supercharge, "Qalt": supercharge_alt, "C": casimir, "J3": j3}
    return builders[name](space)


def _cmd_spectrum(args) -> int:
    rep = spectrum(_named_operator(args.op, HarmonicSpace(args.j)))

    def payload():
        return {
            "j": args.j,
            "operator": args.op,
            "eigenvalues": [float(v) for v in rep.eigenvalues],
            "multiplicities": [int(m) for m in rep.multiplicities],
        }

    _emit(args, "spectrum", {"j": args.j, "operator": args.op}, payload, ["eigenvalue", "multiplicity"],
          lambda: list(zip(rep.eigenvalues, rep.multiplicities)),
          _grid([f"spectrum of {args.op} at j={args.j}", "eigenvalue      multiplicity"],
                "{:>12.6f}    x{}"))
    return 0


# ---------------------------------------------------------------------------
# basis

_BASES = {"M": eb.m_basis, "F": eb.f_basis, "G": eb.g_basis, "Z": lambda space: ak.z_basis(space.j)}


def _cmd_basis(args) -> int:
    basis = _BASES[args.family](HarmonicSpace(args.j))
    first_label = basis.labels[0] if basis.labels else {}
    keys = sorted(first_label)

    def payload():
        return {
            "j": args.j,
            "family": args.family,
            "labels": [dict(lab) for lab in basis.labels],
            "vectors": basis.coeffs.T,
        }

    def rows():
        return ((n, *(lab[k] for k in keys), *_pairs(v).ravel().tolist())
                for n, (lab, v) in enumerate(zip(basis.labels, basis.coeffs.T)))

    header = ["index", *keys, *(f"c{i}_{p}" for i in range(2 * args.j + 1) for p in ("re", "im"))]
    labels = ", ".join(f"{k}={{{1 + keys.index(k)}}}" for k in first_label)
    cells = "  ".join(f"{{{i}:+.6f}}{{{i + 1}:+.6f}}i" for i in range(1 + len(keys), len(header), 2))
    table = _grid([f"{args.family}-basis at j={args.j}: {len(basis)} vector(s)"], f"  {labels}\n    {cells}")
    _emit(args, "basis", {"j": args.j, "family": args.family}, payload, header, rows, table)
    return 0


# ---------------------------------------------------------------------------
# poly

def _cmd_poly(args) -> int:
    n_max = args.N
    if args.what == "coeffs":
        t = ak.recurrence_coeffs(n_max)
        payload = {"N": n_max, "A": t.A, "C": t.C, "monic_b": t.monic_b, "monic_c": t.monic_c}
        header = ["n", "A", "C", "monic_b", "monic_c"]
        columns = [range(n_max + 1), t.A, t.C, t.monic_b, [None, *t.monic_c[:n_max]]]
        table = _grid([f"recurrence coefficients at N={n_max}", "n       A_n       C_n       b_n       c_n"],
                      "{:<3} {:>9.5f} {:>9.5f} {:>9.5f} {:>9.5f}")
    elif args.what == "values":
        t = ak.recurrence_coeffs(n_max)
        g = ak.grid(n_max)
        vals = ak.monic_table(t, n_max + 1, g.x)
        payload = {"N": n_max, "x": g.x, "y": g.y, "P": vals}
        header = ["k", "x", "y", *(f"P{n}" for n in range(n_max + 2))]
        columns = [range(n_max + 1), g.x, g.y, *vals]
        table = _grid([f"monic values P_n(x_k) at N={n_max}",
                       "k/n " + " ".join(f"{n:>10}" for n in range(n_max + 2))],
                      "{0:<3} " + " ".join(f"{{{n + 3}:>10.5f}}" for n in range(n_max + 2)))
    elif args.what == "weights":
        wt = ak.weights(n_max)
        payload = {"N": n_max, "x": wt.x, "derived": wt.derived, "log2_norms": wt.log2_norms}
        header, columns = ["k", "x", "derived"], [range(n_max + 1), wt.x, wt.derived]
        table = _grid([f"closed-form weights at N={n_max}", "k          x    derived"],
                      "{:<3} {:>8.4f} {:>10.6f}")
    else:
        p = ak.bannai_ito_params(n_max)
        payload = {"N": n_max, **p}
        header, columns = list(p), [[v] for v in p.values()]
        table = _grid([f"Bannai-Ito parameters at N={n_max}"], "\n".join(f"  {k} = {{}}" for k in p))
    _emit(args, "weights" if args.what == "weights" else "recurrence", {"N": n_max, "what": args.what},
          lambda: payload, header, lambda: list(zip(*columns)), table)
    return 0


# ---------------------------------------------------------------------------
# overlaps

def _cmd_overlaps(args) -> int:
    n = args.N
    results = {}
    if args.method in ("integral", "both"):
        results["integral"] = ak.overlaps_via_integral(n)
    if args.method in ("recurrence", "both"):
        results["recurrence"] = ak.overlaps_via_recurrence(n)
    dev = None
    if args.method == "both":
        dev = float(np.max(np.abs(results["integral"].W - results["recurrence"].W)))
    header = ["method", "n", *(f"k{k}_{p}" for k in range(n + 1) for p in ("re", "im"))]

    def payload():
        out = {"N": n, "method": args.method}
        for name, om in results.items():
            out[f"W_{name}"] = om.W
            out[f"unitarity_residual_{name}"] = om.unitarity_residual
        if dev is not None:
            out["max_deviation"] = dev
        return out

    def rows():
        return ((name, r, *_pairs(w).ravel().tolist()) for name, om in results.items()
                for r, w in enumerate(om.W))

    def table(rows):
        yield f"overlap matrix at N={n} (method: {args.method})"
        template = "  " + "  ".join(f"{{{i}:+.6f}}{{{i + 1}:+.6f}}i" for i in range(2, len(header), 2))
        for row in rows:
            if row[1] == 0:
                yield f"[{row[0]}] unitarity residual {results[row[0]].unitarity_residual:.3e}"
            yield template.format(*row)
        if dev is not None:
            yield f"max entrywise deviation between methods: {dev:.3e}"

    _emit(args, "overlaps", {"N": n, "method": args.method}, payload, header, rows, table)
    return 0


# ---------------------------------------------------------------------------
# parser

def _subcommand(sub, name, text, format_default="table", format_help="table"):
    """A subparser with its own --format and --output.  Parent parsers share
    their actions, so a default set on one subparser would be every one's."""
    p = sub.add_parser(name, help=text)
    p.add_argument("--format", choices=("json", "csv", "table"), default=format_default,
                   help=f"output format (default: {format_help})")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="write output to PATH instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorsusy",
        description="Rigid-rotor supersymmetry toolkit: verification suites and data exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = _subcommand(sub, "verify", "run the invariant suites", None,
                           "json with --output, else table")
    p_verify.add_argument("--jmax", type=int, default=20, help="largest degree (default 20)")
    p_verify.add_argument("--suite", choices=SUITES, default=None,
                          help="restrict to one suite")
    p_verify.add_argument("--tolerance-scale", dest="tolerance_scale", type=float, default=1.0,
                          metavar="FLOAT", help="multiply all default tolerances")
    p_verify.set_defaults(func=_cmd_verify)

    p_spec = _subcommand(sub, "spectrum", "eigenvalues and multiplicities of a named operator")
    p_spec.add_argument("--j", type=int, required=True)
    p_spec.add_argument("--op", choices=_OPERATOR_NAMES, required=True)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_basis = _subcommand(sub, "basis", "export an eigenbasis family")
    p_basis.add_argument("--j", type=int, required=True)
    p_basis.add_argument("--family", choices=tuple(_BASES), required=True)
    p_basis.set_defaults(func=_cmd_basis)

    p_poly = _subcommand(sub, "poly", "anti-Krawtchouk tables")
    p_poly.add_argument("--N", type=int, required=True)
    p_poly.add_argument("--what", choices=("coeffs", "values", "weights", "params"),
                        required=True)
    p_poly.set_defaults(func=_cmd_poly)

    p_over = _subcommand(sub, "overlaps", "overlap matrix between the two eigenbases")
    p_over.add_argument("--N", type=int, required=True)
    p_over.add_argument("--method", choices=("integral", "recurrence", "both"),
                        default="both")
    p_over.set_defaults(func=_cmd_overlaps)
    return parser


def _validate(parser, args) -> None:
    if args.command == "verify" and not (args.tolerance_scale > 0):
        parser.error(f"--tolerance-scale must be positive, got {args.tolerance_scale}")
    if args.command == "verify" and args.jmax < 0:
        parser.error(f"--jmax must be non-negative, got {args.jmax}")
    if args.command in ("spectrum", "basis") and args.j < 0:
        parser.error(f"--j must be non-negative, got {args.j}")
    if args.command == "basis" and args.family == "Z" and args.j < 1:
        parser.error(f"--family Z needs --j >= 1 (the block size N = j), got {args.j}")
    if args.command in ("poly", "overlaps") and args.N < 1:
        parser.error(f"--N must be at least 1, got {args.N}")


_parser = functools.cache(build_parser)  # one parser serves every main call


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        _validate(parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (VerificationError, ContractViolation) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if not args.output or exc.filename != args.output:
            raise
        print(f"rotorsusy: error: cannot write --output {args.output}: {exc.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
