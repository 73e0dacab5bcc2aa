"""Command-line surface for every calculator in the package.

Usage sketch (global flags go before the subcommand):

    k3gonal bn rho -g 9 -r 1 -d 6
    k3gonal bn check -p 9 -k 4 --delta 2
    k3gonal gonality delta0 -p 9 -k 4 --verify
    k3gonal gonality dims -p 8 -k 2 --delta 4
    k3gonal chains witness -p 8 -k 2 --delta 5
    k3gonal chains enumerate -p 4 -k 2
    k3gonal chains stable -p 8 -k 2 --alpha 1:2,2:1,4:1
    k3gonal pencil verify -k 3 --samples 50 --seed 7
    k3gonal --format json hilb class -p 8 -k 2 --delta 4
    k3gonal hilb qvalues -k 3 --pmax 300 --format csv
    k3gonal hilb scan --pmax 20 --kmax 4

Output formats: table (default, unicode fractions), json (stable schema,
rationals as "num/den" strings), csv.  `--out FILE` redirects to a UTF-8
file.  Both go before the subcommand or trail its options; the later one
wins.  Exit codes: 0 success (and `--help`), 1 domain/usage error, 2
internal invariant violation (a failed cross-check aborts loudly, never
downgrades to a warning).

`cli` is the command table: each leaf is registered once, with its
callback, its options as (flag, argparse keyword arguments) specs and its
docstring as help.  `main` reads a well-formed command (root flags, a leaf's
two names, then exact flags and values of that leaf) straight from those
specs, so it builds no argparse tree and imports neither argparse nor csv;
anything else, such as help, an unknown command, a leftover argument or a
bad value, goes through the whole stdlib argparse tree, built from the same
specs on first use, which prints its help or usage error.  A callback
returns what `_emit` renders: a json payload (a row command's is the chunks
of `_json_rows`), a table and, from a row command, its csv lines.  A
single-case command's table is a function that `_emit` calls under
`--format table` alone, so json and csv build no table; its output is one
text, written with one write, unless it is json longer than `_PIPE_BYTES`.
Every csv is text lines with no csv writer: a single-case command's keys
and values are two lines of `_csv_cell`s, and a row command's lines are
built per row, its command fixing each column's quoting.  A dict, and a
tuple of exact ints such as a (j, alpha_j) pair, render in json through a
template kept per shape and indent in a bounded `functools.lru_cache`, so
no module global grows; `chains enumerate` renders each distinct pair of
its enumeration once per command, in a memo of the selected format that
ends with the command, so no text outlives its command, and a witness's
table maps its pairs through the template with no memo.
"""

import codecs
import functools
import itertools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from . import brillnoether, chains, gonality, hilbert, pencil
from .errors import InvariantViolation, _refuse_below, _refuse_over_limit
from .hilbert import _ratio_text

__all__ = ["cli", "main"]

# `hilb scan` holds one tuple per row until it renders them
SCAN_MAX_ROWS = 10**5

FORMATS = ("table", "json", "csv")


def _rat_table(num: int, den: int) -> str:
    """Table-mode rendering of num/den: unicode fraction slash, integers bare."""
    return _ratio_text(num, den).replace("/", "⁄")


# the leaf renderers of _json_text, keyed by exact type so a bool is no int
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


# how many templates of each kind are kept, the least recently used dropped
# first; each is keyed by a shape, not by the values it renders
_TEXTS_MAX = 1024


@functools.lru_cache(maxsize=_TEXTS_MAX)
def _dict_template(keys: tuple, pad: str) -> str:
    """A dict of `keys` in the order given, at `pad`, as a %-template of its
    values' json texts."""
    inner = pad + "  "
    return "{" + ",".join(inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                          for key in keys) + pad + "}"


@functools.lru_cache(maxsize=_TEXTS_MAX)
def _ints_template(length: int, pad: str) -> str:
    """A non-empty tuple of `length` exact ints at `pad`, as a %-template of
    the ints, whose "%d" is their repr."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(["%d"] * length) + pad + "]"


def _json_text(obj, pad: str = "\n") -> str:
    """`json.dumps(obj, indent=2)` for str, int, bool, None, list, tuple and
    str-keyed dict trees; `pad` is the newline and indent of obj's own line.

    Leaves are rendered inline by their exact type and only containers
    recurse.  A dict fills the template of its key tuple and pad, and a
    non-empty tuple of exact ints, such as a (j, alpha_j) pair, the "%d"
    template of its length and pad (no bool: "%d" prints True as 1); each
    kind of template is kept in its function's `functools.lru_cache`.  Any
    other tuple renders as a list.
    Anything else raises TypeError: a float or a Fraction here, a key that is
    not a str in encode_basestring_ascii.
    """
    scalar = _JSON_SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if type(obj) is tuple and obj:
        for value in obj:
            if type(value) is not int:
                break
        else:
            return _ints_template(len(obj), pad) % obj
    if type(obj) is dict:
        if not obj:
            return "{}"
        template = _dict_template(tuple(obj), pad)
        inner = pad + "  "
        texts = []
        for value in obj.values():
            scalar = _JSON_SCALARS.get(type(value))
            texts.append(scalar(value) if scalar is not None else _json_text(value, inner))
        return template % tuple(texts)
    if type(obj) is not list and type(obj) is not tuple:
        raise TypeError(f"cannot render {type(obj).__name__} as JSON")
    if not obj:
        return "[]"
    inner = pad + "  "
    items = []
    for value in obj:
        scalar = _JSON_SCALARS.get(type(value))
        items.append(scalar(value) if scalar is not None else _json_text(value, inner))
    return "[" + inner + ("," + inner).join(items) + pad + "]"


# the newline and indent of each row of _json_rows, and of a row's keys
_ROW = "\n    "
_ROW_KEY = _ROW + "  "


def _json_rows(envelope: dict, rows):
    """The json rendering of `envelope` plus a newline, as text chunks, whose
    last key, at the top level and empty in `envelope`, holds the json texts
    `rows` at the `_ROW` indent: one chunk per row, the first with the
    envelope's head, then the tail.  No row gives `[]`, as in `json.dumps`."""
    empty = _json_text(envelope) + "\n"
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        yield empty
        return
    head, tail = empty.rsplit("[]", 1)
    yield head + "[" + _ROW + first
    yield from map(("," + _ROW).__add__, rows)
    yield "\n  ]" + tail


# text chunks joined into one write by _emit: about 0.3 MB of partitions
_EMIT_BATCH = 1024
# a pipe's default buffer: _emit sends a longer json dict line by line, as
# a text that fits is written whole whether or not the reader has gone
_PIPE_BYTES = 1 << 16


def _csv_cell(value) -> str:
    """`value` as a csv cell: None is empty, a list, tuple or dict its
    `json.dumps`, anything else its `str`; quoted, each inner quote doubled,
    if it holds a comma, a quote, a newline or a carriage return."""
    if value is None:
        return ""
    text = json.dumps(value) if isinstance(value, (list, tuple, dict)) else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _batches(chunks):
    """The texts of `chunks`, joined `_EMIT_BATCH` at a time as they are made."""
    chunks = iter(chunks)
    return iter(lambda: "".join(itertools.islice(chunks, _EMIT_BATCH)), "")


def _emit(fmt: str, out_path: str | None, payload, table, csv_lines=None) -> None:
    """Render one result in the selected format and write it out.

    Only the selected rendering is built.  A single-case command gives a
    dict `payload`, whose csv is a line of its keys and one of its values in
    `_csv_cell`s, and, as `table`, a function of no arguments that gives its
    text, with no trailing newline.  A row command gives the chunks of
    `_json_rows` and, as `table` and `csv_lines`, iterables of its lines,
    none ending in a newline.  A one-text result (a dict in json up to
    `_PIPE_BYTES`, or a single-case table or csv) is written with one write;
    any other output in `_batches` of its chunks, so a long output is never
    held whole, and a reader that closes stdout early meets a later write.
    A dict is `_json_text` and a newline, a chunk per line past `_PIPE_BYTES`.
    """
    if fmt == "json" and isinstance(payload, dict):
        text = _json_text(payload) + "\n"
        batches = (text,) if len(text) <= _PIPE_BYTES else _batches(text.splitlines(True))
    elif fmt == "json":
        batches = _batches(payload)
    elif csv_lines is not None:
        batches = _batches(line + "\n" for line in (table if fmt == "table" else csv_lines))
    elif fmt == "csv":
        batches = (",".join(map(_csv_cell, payload)) + "\n"
                   + ",".join(map(_csv_cell, payload.values())) + "\n",)
    else:
        batches = (table() + "\n",)
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                for text in batches:
                    fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from exc
        return
    # looked up at each call and not kept; on an ASCII stream the text goes to
    # its binary buffer as UTF-8, so table fractions (U+2044) print all the
    # same, and any other encoding without them is an error that names it
    stdout = sys.stdout
    if hasattr(stdout, "buffer") and codecs.lookup(stdout.encoding).name == "ascii":
        stdout.flush()
        stdout, batches = stdout.buffer, (text.encode("utf-8") for text in batches)
    try:
        for text in batches:
            stdout.write(text)
        stdout.flush()
    except UnicodeEncodeError as exc:
        char = f"U+{ord(exc.object[exc.start]):04X}"
        raise ValueError(f"stdout encoding {sys.stdout.encoding} cannot write {char}; use "
                         "--format json or csv, or set PYTHONIOENCODING=utf-8") from None
    except OSError as exc:
        # the reader is gone (`| head`) or the device refused the write (a full
        # disk): what is still buffered goes to devnull, so the interpreter's
        # final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise ValueError("stdout was closed before the output was complete") from None
        raise ValueError(f"cannot write stdout: {exc.strerror or exc}") from None


class _Leaf:
    """A command: its callback, which returns what `_emit` takes after the
    format and path, (payload, table) from a single-case command, whose csv
    `_emit` makes from the payload, and (payload, table, csv_lines) from a
    row command, and its options as (flag, argparse keyword arguments) pairs.

    `main` reads `callback` at each call, so it may be rebound.
    """

    def __init__(self, callback, options):
        self.callback = callback
        self.options = options
        self.help = callback.__doc__


class _Group:
    """A node of the command table: its help and its commands by name."""

    def __init__(self, help):
        self.help = help
        self.commands = {}

    def group(self, name, help):
        group = self.commands[name] = _Group(help)
        return group

    def command(self, name, *options):
        """Register the decorated callback as the leaf `name`."""

        def register(callback):
            self.commands[name] = _Leaf(callback, options)
            return callback

        return register


def _opt(flag, help=None, **kwargs):
    """A (flag, argparse keyword arguments) pair; an option that is no flag
    is by default an int, required unless it has a default."""
    if kwargs.get("action") != "store_true":
        kwargs = {"type": int, "required": "default" not in kwargs, **kwargs}
    return flag, {"help": help, **kwargs}


_P = _opt("-p", "Arithmetic genus.")
_K = _opt("-k", "Gonality.")
_DELTA = _opt("--delta", "Marked node count.")

cli = _Group(
    "Exact calculators for gonality loci on K3 surfaces and the Mori cone "
    "of punctual Hilbert schemes."
)


bn = cli.group("bn", "Brill-Noether numbers and the existence bound.")


@bn.command("rho", _opt("-g", "Genus."), _opt("-r", "Series dimension."),
            _opt("-d", "Series degree."))
def bn_rho(g, r, d):
    """The Brill-Noether number g - (r+1)(r+g-d)."""
    value = brillnoether.rho(g, r, d)
    return {"g": g, "r": r, "d": d, "rho": value}, lambda: str(value)


@bn.command("check", _P, _opt("-k", "Gonality (sets d=k, r=1).", default=None), _DELTA,
            _opt("-r", "Series dimension (default 1).", default=None),
            _opt("-d", "Series degree (default k).", default=None))
def bn_check(p, k, delta, r, d):
    """Existence bound for a g^r_d on the normalization."""
    if k is not None:
        if k < 2:
            _refuse_below("k", 2, k)
        # -k is the series g^1_k: an explicit -d or -r must agree with it
        if d is not None and d != k:
            raise ValueError(f"-k {k} sets d={k}, which conflicts with -d {d}")
        if r is not None and r != 1:
            raise ValueError(f"-k {k} sets r=1, which conflicts with -r {r}")
        d = k
    elif d is None:
        raise ValueError("provide -k, or an explicit degree via -d")
    r = 1 if r is None else r
    report = brillnoether.necessary_condition(p, delta, r, d)
    payload = {
        "p": p,
        "delta": delta,
        "r": r,
        "d": d,
        "alpha": report.alpha,
        "rho_at_alpha": report.rho_at_alpha,
        "threshold_delta": report.threshold_delta,
        "satisfied": report.satisfied,
    }

    def table():
        verdict = "satisfied" if report.satisfied else "violated"
        return (f"{verdict} (alpha={report.alpha}, rho={report.rho_at_alpha}, "
                f"threshold={report.threshold_delta})")

    return payload, table


gonality_group = cli.group("gonality",
                           "Admissibility, minimal node numbers, expected dimensions.")


@gonality_group.command("delta0", _P, _K, _opt(
    "--verify", "Certify that delta0 is the least admissible delta: it is admissible "
    "and delta0 - 1 is not.", action="store_true"))
def gonality_delta0(p, k, verify):
    """Minimal admissible node number, in closed form."""
    value = gonality.delta0(p, k)
    if verify and not gonality.is_optimal(p, k, value):
        raise InvariantViolation(
            f"delta0 closed form {value} is not the least admissible delta at (p={p}, k={k})"
        )
    payload = {"p": p, "k": k, "delta0": value, "verified": verify}
    return payload, lambda: f"{value} (verified)" if verify else str(value)


@gonality_group.command("dims", _P, _K, _DELTA)
def gonality_dims(p, k, delta):
    """Expected dimension of the k-gonal locus and of W^1_k."""
    dim_vk, dim_w1k = gonality.expected_dims(p, k, delta)
    payload = {"p": p, "k": k, "delta": delta, "dim_Vk": dim_vk, "dim_W1k": dim_w1k}
    return payload, lambda: f"dim V^k = {dim_vk}, dim W^1_k = {dim_w1k}"


chains_group = cli.group("chains",
                         "Chain partitions: witnesses, enumeration, stable models.")


class _PairTexts(dict):
    """The text `template % pair` of each pair, rendered on its first lookup
    and kept for one command, keyed by the enumeration's shared pairs."""

    def __init__(self, template: str):
        self.template = template

    def __missing__(self, pair):
        text = self[pair] = self.template % pair
        return text


def _partition_lines(parts: list[chains.ChainPartition], row: str, pair: str, sep: str):
    """`row % (delta, g, pairs)` of each of `parts`, whose pairs are the texts
    `pair % (j, a)` of its pairs, joined by `sep`; with more than one
    partition, each distinct pair is rendered once in a memo of this call."""
    text = _PairTexts(pair).__getitem__ if len(parts) > 1 else pair.__mod__
    for part in parts:
        yield row % (part.delta, part.g, sep.join(map(text, part.parts)))


@chains_group.command("witness", _P, _K, _DELTA)
def chains_witness(p, k, delta):
    """A valid partition realizing the requested node number."""
    part = chains.witness(p, k, delta)
    return part.to_payload(), lambda: next(_partition_lines(
        [part], f"p={p} k={k} delta=%d g=%d parts[%s]", "%d:%d", ", "))


@chains_group.command("enumerate", _P, _K)
def chains_enumerate(p, k):
    """All valid partitions for (p, k), in stable order."""
    parts = chains.enumerate_partitions(p, k)
    pad = _ROW_KEY + "  "  # each pair's own line
    # a json row template with p and k filled in: delta, g and the pairs remain
    row = _dict_template(("p", "k", "delta", "g", "parts"), _ROW) % (
        p, k, "%s", "%s", "[" + pad + "%s" + _ROW_KEY + "]")
    envelope = {"p": p, "k": k, "count": len(parts), "partitions": []}
    rows = _partition_lines(parts, row, _ints_template(2, pad), "," + pad)
    table = _partition_lines(parts, f"p={p} k={k} delta=%d g=%d parts[%s]", "%d:%d", ", ")
    # a parts cell always holds a comma and never a quote, so the template
    # quotes it; _csv_cell would json.dumps each partition's pairs anew
    csv_lines = itertools.chain(["delta,g,parts"],
                                _partition_lines(parts, '%d,%d,"[%s]"', "[%d, %d]", ", "))
    return _json_rows(envelope, rows), table, csv_lines


def _parse_alpha(text: str) -> list[tuple[int, int]]:
    """The (j, multiplicity) pairs in order; ChainPartition sums repeated j."""
    pairs = []
    try:
        for piece in text.split(","):
            j, a = piece.split(":")
            pairs.append((int(j), int(a)))
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"--alpha expects comma-separated j:multiplicity pairs, got {text!r}"
        ) from exc
    return pairs


@chains_group.command("stable", _P, _K, _opt(
    "--alpha", "Sparse multiplicities, e.g. 1:2,2:1,4:1.", type=str))
def chains_stable(p, k, alpha):
    """Stable-model node count and bookkeeping for a given partition."""
    part = chains.ChainPartition(p, k, _parse_alpha(alpha))
    broken = chains._broken_rule(part)
    if broken is not None:
        raise ValueError(f"partition invalid: {broken}")
    # the per-chain counts of the `chains` docstring, summed with sum j alpha_j = p
    g, delta = part.g, part.delta
    payload = {
        "partition": part.to_payload(),
        "line_count": 2 * p - g,
        "ruling2_lines": p,
        "marked_nodes": delta,
        "nodes_on_gamma2": p,
        "e_points": 2 * p,
        "stable_model_nodes": g,
        "stable_nodes": g,
        "arithmetic_genus": g,
    }
    return payload, lambda: (
        f"stable model: {g} nodes, arithmetic genus {g}\n"
        f"lines={2 * p - g} ruling2={p} marked={delta} e_points={2 * p}"
    )


pencil_group = cli.group("pencil",
                         "Randomized exact verification of the Sym^2(P^1) pencil algebra.")


@pencil_group.command("verify", _K,
                       _opt("--samples", "Pencils to sample (default %(default)s).", default=200),
                       _opt("--seed", "Random seed (default %(default)s).", default=0))
def pencil_verify(k, samples, seed):
    """Degree law, diagonal identity, membership oracle, conic counts."""
    # verification_suite's report, its rate transversal/samples (1 at no
    # sample) compared and printed from the two integers
    result = pencil._suite_counts(k, samples, seed)
    transversal, failures = result["transversal"], result["failures"]
    rate = _ratio_text(transversal, samples) if samples else "1"
    if failures:
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        raise InvariantViolation("; ".join(failures[:5]) + more)
    if 100 * transversal < 95 * samples:
        raise InvariantViolation(
            f"transversality rate {rate} below 95% at k={k}, seed={seed}"
        )
    payload = {**result, "transversal_rate": rate}
    return payload, lambda: (
        f"k={k} samples={samples} seed={seed} "
        f"transversal={transversal}/{samples} failures={len(failures)}"
    )


hilb = cli.group("hilb", "Curve classes, q-values and cone bounds on the Hilbert scheme.")


@hilb.command("class", _P, _K, _DELTA)
def hilb_class(p, k, delta):
    """The curve class H - (g+k-1) r_k of an admissible case."""
    cls = hilbert.gonality_class(p, k, delta)
    display = cls.display()
    payload = {
        "p": p,
        "k": k,
        "delta": delta,
        "class": cls.to_payload(),
        "q": _ratio_text(hilbert._scaled_q(p, k, cls.a, cls.y), 2 * (k - 1)),
        "display": display,
    }
    return payload, lambda: display


@hilb.command("q", _P, _K, _DELTA)
def hilb_q(p, k, delta):
    """Self-intersection of the gonality class, both closed forms."""
    # 2(k-1) q, checked as q_case checks it
    scaled, den = hilbert._scaled_q_case(p, k, delta), 2 * (k - 1)
    payload = {"p": p, "k": k, "delta": delta, "q": _ratio_text(scaled, den)}
    return payload, lambda: _rat_table(scaled, den)


@hilb.command("cone", _P, _K)
def hilb_cone(p, k):
    """Cone bound tau(p, k) and the optimal class behind it."""
    opt = hilbert.optimal_class(p, k)
    # optimal_class has checked that y = g+k-1 at delta0, so delta0 = p+k-1-y;
    # tau is hilbert.tau's 2(p-1)/y on the same class, and q that of the class
    t = (2 * (p - 1), opt.y)
    q = (hilbert._scaled_q(p, k, opt.a, opt.y), 2 * (k - 1))
    payload = {
        "p": p,
        "k": k,
        "tau": _ratio_text(*t),
        "optimal_class": opt.to_payload(),
        "delta0": p + k - 1 - opt.y,
        "q_optimal": _ratio_text(*q),
        "ample_necessary": "0 < t < tau",
        "nef_necessary": "0 <= t <= tau",
    }
    return payload, lambda: (
        f"tau = {_rat_table(*t)}; optimal class {opt.display()} "
        f"(q = {_rat_table(*q)})\n"
        f"H - t*e_k ample only if 0 < t < tau, nef only if 0 <= t <= tau"
    )


@hilb.command("qvalues", _K, _opt("--pmax", "Largest p."))
def hilb_qvalues(k, pmax):
    """Negative optimal self-intersections attained up to pmax."""
    # the sorted 2(k-1) q; only the selected format renders them
    values, den = hilbert._scaled_q_values(k, pmax), 2 * (k - 1)
    rows = (encode_basestring_ascii(_ratio_text(v, den)) for v in values)
    table = (_rat_table(v, den) for v in values)
    # no value holds a comma or a quote, so csv writes each bare
    csv_lines = itertools.chain(["q"], (_ratio_text(v, den) for v in values))
    return _json_rows({"k": k, "pmax": pmax, "qvalues": []}, rows), table, csv_lines


@hilb.command("lagrangian", _P, _K)
def hilb_lagrangian(p, k):
    """Isotropy detection and the Lagrangian-fibration necessary condition."""
    report = hilbert.lagrangian_report(p, k)

    def table():
        if not report.has_isotropic:
            return "no isotropic class: (k-1)(p-1) is not a perfect square"
        verdict = "isotropic divisor not nef" if report.not_nef else "necessary condition holds"
        prim = f", primitive (n={report.n})" if report.primitive else ""
        return f"s={report.s} alpha={report.alpha} value={report.value}: {verdict}{prim}"

    return report.to_payload(), table


@hilb.command("rays", _P, _K)
def hilb_rays(p, k):
    """Extremal-ray status of the Mori cone for (p, k)."""
    report = hilbert.extremal_ray_status(p, k)

    def table():
        rays = ", ".join(r.display() for r in report.rays)
        q = _rat_table(report.q_scaled, 2 * (k - 1))
        text = f"{report.status}: rays {{{rays}}} (q = {q})"
        if report.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in report.notes)
        return text

    return report.to_payload(), table


# the columns of a `hilb scan` row, in the order of its tuple
_SCAN_KEYS = ("p", "k", "delta0", "g", "class", "q", "tau", "cone_status", "isotropic",
              "lagrangian_ok", "primitive")


@hilb.command("scan", _opt("--pmax", "Largest p."), _opt("--kmax", "Largest k."),
              _opt("--pmin", "Smallest p (default %(default)s).", default=2),
              _opt("--kmin", "Smallest k (default %(default)s).", default=2))
def hilb_scan(pmax, kmax, pmin, kmin):
    """One row per (p, k): delta0, g, optimal class, q, cone and flags."""
    for name, least in (("pmin", pmin), ("kmin", kmin)):
        if least < 2:
            _refuse_below(name, 2, least)
    if pmin > pmax or kmin > kmax:
        raise ValueError(
            f"empty grid: need pmin <= pmax and kmin <= kmax, got "
            f"pmin={pmin}, pmax={pmax}, kmin={kmin}, kmax={kmax}"
        )
    size = (pmax - pmin + 1) * (kmax - kmin + 1)
    if size > SCAN_MAX_ROWS:
        _refuse_over_limit(f"grid of {size} rows is", "SCAN_MAX_ROWS", SCAN_MAX_ROWS)
    rows = []
    for k in range(kmin, kmax + 1):
        for p in range(pmin, pmax + 1):
            d0 = gonality.delta0(p, k)
            opt = hilbert.optimal_class(p, k)
            ray = hilbert.extremal_ray_status(p, k)
            lag = hilbert.lagrangian_report(p, k)
            # the values of _SCAN_KEYS; ray.q_scaled is 2(k-1) q of opt, and
            # _tau_terms those of hilbert.tau
            rows.append((p, k, d0, p - d0, opt.display(),
                         _ratio_text(ray.q_scaled, 2 * (k - 1)),
                         _ratio_text(*hilbert._tau_terms(p, k)), ray.status, lag.has_isotropic,
                         lag.necessary_condition_holds, lag.primitive))
    table = ("\t".join(map(str, line)) for line in itertools.chain([_SCAN_KEYS], rows))
    # joined bare, 4 times faster a row than by _csv_cell, as no cell holds a
    # comma or a quote; lagrangian_ok's None, off isotropic cases, is empty
    csv_lines = (",".join(["" if v is None else str(v) for v in line])
                 for line in itertools.chain([_SCAN_KEYS], rows))
    row = _dict_template(_SCAN_KEYS, _ROW)
    texts = (row % tuple([_JSON_SCALARS[type(v)](v) for v in values]) for values in rows)
    envelope = {"pmin": pmin, "pmax": pmax, "kmin": kmin, "kmax": kmax, "rows": []}
    return _json_rows(envelope, texts), table, csv_lines


def _out_path(text: str) -> str:
    if not text:
        import argparse
        raise argparse.ArgumentTypeError("need a file name, got ''")
    return text


# the root's --format and --out; each leaf's parser takes trailing copies of
# them, set only when given, so the later one wins
_OUTPUT = (
    ("--format", {"dest": "fmt", "choices": FORMATS, "default": "table",
                  "help": "Output format (default: table)."}),
    ("--out", {"type": _out_path, "default": None, "metavar": "FILE",
               "help": "Write output to FILE instead of stdout."}),
)


# a value with a leading dash that every release from 3.10 on reads as a
# negative number, and so as a value; any other, such as -5_0 (a number in
# some releases only) or -٣ (non-ASCII digits), is left to the tree
_NEGATIVE = re.compile(r"-[0-9]+")


class _Syntax:
    """The options of one parser in the tree, read from the same (flag,
    argparse keyword arguments) specs that `_tree` adds to it: each takes
    one value, passed through its type and checked against its choices, or
    is a store_true flag, which takes none.  The `trailing` options are set
    only when given."""

    def __init__(self, options, trailing=(), **defaults):
        # flag -> (dest, store_true, type, choices)
        self.options = {flag: (kwargs.get("dest", flag.lstrip("-").replace("-", "_")),
                               kwargs.get("action") == "store_true",
                               kwargs.get("type"), kwargs.get("choices"))
                        for flag, kwargs in (*options, *trailing)}
        self.defaults, self.required = {}, set()
        for flag, kwargs in options:
            dest, store_true = self.options[flag][:2]
            if kwargs.get("required"):
                self.required.add(dest)
            else:
                self.defaults[dest] = kwargs.get("default", False if store_true else None)
        self.defaults.update(defaults)

    def read(self, argv: list[str], i: int, args: dict) -> int | None:
        """Read options from argv[i:] into `args` up to the first token that
        is no flag of this parser, and return its index; None if a value is
        missing, refused by its type or choices, or has a leading dash and
        is not a plain negative number."""
        while i < len(argv):
            option = self.options.get(argv[i])
            if option is None:
                break
            dest, store_true, type_, choices = option
            if store_true:
                args[dest] = True
                i += 1
                continue
            if i + 1 == len(argv):
                return None
            text = argv[i + 1]
            if text[:1] == "-" and not _NEGATIVE.fullmatch(text):
                return None
            # any refusal by the type, such as int's ValueError or
            # _out_path's ArgumentTypeError, is left to the tree to report
            try:
                value = text if type_ is None else type_(text)
            except Exception:
                return None
            if choices is not None and value not in choices:
                return None
            args[dest] = value
            i += 2
        return i


_ROOT = _Syntax(_OUTPUT)
# the options of each leaf's parser in the tree, keyed by its two names
_LEAVES = {(group, name): _Syntax(leaf.options, _OUTPUT, leaf=leaf)
           for group, node in cli.commands.items() for name, leaf in node.commands.items()}


@functools.cache
def _tree():
    """The whole argparse tree of the command table, built on first use:
    only help and usage errors need it."""
    import argparse

    def add_node(parser, node) -> None:
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        if isinstance(node, _Leaf):
            for flag, kwargs in node.options:
                parser.add_argument(flag, **kwargs)
            for flag, kwargs in _OUTPUT:
                parser.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
            parser.set_defaults(leaf=node)
            return
        # a metavar, without which Python 3.10 fails to name a missing command
        subparsers = parser.add_subparsers(required=True, metavar="COMMAND")
        for name, child in node.commands.items():
            add_node(subparsers.add_parser(name, help=child.help, description=child.help,
                                           add_help=False, allow_abbrev=False), child)

    parser = argparse.ArgumentParser(
        prog="k3gonal", description=cli.help, add_help=False, allow_abbrev=False
    )
    for flag, kwargs in _OUTPUT:
        parser.add_argument(flag, **kwargs)
    add_node(parser, cli)
    return parser


def _parse(argv: list[str]) -> dict:
    """The options of `argv`, as the whole tree parses them.

    A well-formed command is read from the command table alone: root
    --format/--out pairs, a leaf's two names, then only that leaf's options
    and trailing --format/--out, each an exact flag and its own value or a
    bare flag, the last copy winning, with every required option given.
    Anything else, such as help, an unknown or joined token, `--`, a missing
    or bad value or a missing option, goes to the whole tree, built then,
    which prints its help or usage error.
    """
    args = dict(_ROOT.defaults)
    i = _ROOT.read(argv, 0, args)
    leaf = None if i is None else _LEAVES.get(tuple(argv[i:i + 2]))
    if leaf is not None:
        args.update(leaf.defaults)
        if leaf.read(argv, i + 2, args) == len(argv) and args.keys() >= leaf.required:
            return args
    return vars(_tree().parse_args(argv))


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping.  `argv` defaults to
    `sys.argv[1:]`; a well-formed command is read from the command table, and
    anything else is parsed by the whole tree, which reports every help and
    usage error."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 after printing a usage error
        return 0 if exc.code == 0 else 1
    leaf = args.pop("leaf")
    try:
        _emit(args.pop("fmt"), args.pop("out"), *leaf.callback(**args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0
