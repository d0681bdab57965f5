"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` replaces the module attributes through which one
layer of citeforge calls the next with timing wrappers, and puts the
originals back when it is done.  Nothing under ``src/`` knows about it.
Each wrapper keeps a stack of child time, so a span's self time is its
duration minus the time its child spans cover: ``read_aux`` runs inside
the first ``cite``, the macro calls inside ``process_bbl``, and every
layer inside ``cli.main``.

Spans are named ``<layer>`` or ``<layer>.<part>``; a layer's self time
is the sum over its parts.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("scanner", "citations", "rendering", "bbl", "macros", "auxfile", "files", "driver", "cli")

_AUX_RECORD = re.compile(rb"\\(?:citation|bibdata|bibstyle|@citedef)\{")


def _entry_points():
    """(owner, attribute, span, keep) for every wrapped call site.

    ``keep`` picks what to remember from a call's arguments and result;
    it only stores references, so sizing happens after the resolve and
    adds nothing to any span.
    """
    from citeforge import auxfile, bbl, cli, driver, files, rendering

    return (
        (cli, "main", "cli", None),
        (cli, "run_to_fixpoint", "driver.fixpoint", lambda args, result: result),
        (driver, "run_pass", "driver.pass", lambda args, result: args[1]),
        (driver, "next_command", "scanner", None),
        (driver, "cite", "citations.cite", None),
        (driver, "nocite", "citations.nocite", None),
        (driver, "read_aux", "auxfile.read", lambda args, result: args[1]),
        (driver, "handle_missing_aux", "auxfile.read", None),
        (auxfile.AuxSession, "serialize", "auxfile.serialize", lambda args, result: result),
        (driver, "process_bbl", "bbl", lambda args, result: args[0]),
        (bbl, "expand_macros", "macros", None),
        (bbl, "substitute_params", "macros", None),
        (bbl, "define_newcommand", "macros", None),
        (rendering.RenderedFragment, "append", "rendering.append", None),
        (rendering.RenderedFragment, "extend", "rendering.extend", None),
        (cli, "render_plain", "rendering.text", None),
        (files.DirectoryFiles, "exists", "files.read", None),
        (files.DirectoryFiles, "read_bytes", "files.read", None),
        (files.DirectoryFiles, "write_bytes", "files.write", None),
    )


class Tracer:
    """Self time, call count and kept values per span, while installed.

    Each ``with tracer:`` block starts a fresh record of one resolve.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.kept: defaultdict[str, list] = defaultdict(list)
        self._stack = [0.0]
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        """Start a fresh record and install the wrappers."""
        self.self_s.clear()
        self.calls.clear()
        for values in self.kept.values():  # the wrappers hold these lists
            values.clear()
        self._stack[:] = [0.0]
        for owner, attr, span, keep in _entry_points():
            self._wrap(owner, attr, span, keep)
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, span: str, keep) -> None:
        original = getattr(owner, attr)
        stack, self_s, calls, kept = self._stack, self.self_s, self.calls, self.kept[span]

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[span] += elapsed - inner
                calls[span] += 1
            if keep is not None:
                kept.append(keep(args, result))
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def layer_s(self, layer: str) -> float:
        return sum(t for span, t in self.self_s.items() if span.split(".")[0] == layer)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the resolve recorded in the last ``with`` block."""
        layer = {name: self.layer_s(name) for name in LAYERS}
        outcome = self.kept["driver.fixpoint"][-1]
        final = outcome.final
        aux_read = self.kept["auxfile.read"]
        scanned_chars = sum(len(document) for document in self.kept["driver.pass"])
        bbl_chars = sum(len(content) for content in self.kept["bbl"])
        metrics = {
            "scanner.self_s": layer["scanner"],
            "scanner.calls": self.calls["scanner"],
            "scanner.chars_per_s": scanned_chars / layer["scanner"],
            "rendering.self_s": layer["rendering"],
            "rendering.appends": self.calls["rendering.append"],
            "rendering.spans_out": len(final.rendered.spans),
            "citations.self_s": layer["citations"],
            "citations.cites": self.calls["citations.cite"],
            "bbl.self_s": layer["bbl"],
            "bbl.items": len(final.bibliography.items),
            "bbl.chars_per_s": bbl_chars / layer["bbl"],
            "macros.self_s": layer["macros"],
            "macros.calls": self.calls["macros"],
            "auxfile.read_s": self.self_s["auxfile.read"],
            "auxfile.records_read": sum(
                len(_AUX_RECORD.findall(content.replace(b"\n", b"").replace(b"\r", b"")))
                for content in aux_read
            ),
            "auxfile.read_bytes": sum(len(content) for content in aux_read),
            "auxfile.serialize_s": self.self_s["auxfile.serialize"],
            "auxfile.bytes_written": sum(len(data) for data in self.kept["auxfile.serialize"]),
            "files.read_s": self.self_s["files.read"],
            "files.write_s": self.self_s["files.write"],
            "cli.self_s": layer["cli"],
            "driver.self_s": layer["driver"],
            "driver.passes": self.calls["driver.pass"],
        }
        metrics.update({f"{name}.layer_s": seconds for name, seconds in layer.items()})
        metrics["traced_sum_s"] = sum(layer.values())
        return metrics
