"""Seeded corpora for the benchmark, each with the output it must produce.

The generator writes a document and a ``.bbl`` file from a seed and a
workload shape.  While it writes them it also works out, from its own
knowledge of what it wrote, everything a correct resolve has to
produce: the aux bytes, the rendered plain text (every citation label
included), the undefined keys, the warning lines and the CLI exit
code.  It never runs citeforge to find any of these out, so a wrong
answer from citeforge cannot hide behind a wrong expectation.

The same workload, seed and scale always give the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

JOBNAME = "paper"

_SYLLABLES = (
    "ka", "lo", "mi", "ten", "ra", "vus", "en", "dor", "pi", "sal",
    "qu", "ber", "no", "tha", "is", "an", "ce", "mo", "tri", "ul",
)
_UNKNOWN_COMMANDS = ("emph", "textbf", "ref", "label", "eqref", "textit")
_NOTES = ("p.~12", "Ch.~3", "Thm.~2.1", "e.g.", "Sec.~4", "pp.~5--9")

# Macro definitions every generated bbl starts with.  The oracle below
# expands their uses itself; ``jvol`` uses ``pages`` inside its body, so
# the definition-time expansion is exercised too.
_MACROS = (
    "\\newcommand{\\etal}{et~al.}\n"
    "\\newcommand{\\surname}[1]{{\\sc #1}}\n"
    "\\newcommand{\\pages}[2]{pp.~#1--#2}\n"
    "\\newcommand{\\lab}[3]{#1#3#2}\n"
    "\\newcommand{\\jvol}[3]{{\\em #1} #2, \\pages{#3}{9#3}}\n"
)
MACRO_DEFINITIONS = _MACROS.count("\\newcommand")


@dataclass(frozen=True)
class Shape:
    """The input properties of one workload at full size."""

    items: int  # \bibitem entries in the bbl
    tag_share: float  # share of items labelled [tag] through the \lab macro
    cites: int  # \cite commands in the document
    undefined_cites: int  # cites carrying one key that the bbl lacks
    keys_per_cite: tuple[int, int]  # least and most keys in one \cite
    note_share: float  # share of cites with an optional [note]
    words_per_cite: int  # prose words between two cites
    cite_every_item: bool  # each item cited at least once, as BibTeX would emit
    warm: bool  # the converged aux is in place before each resolve

    def scaled(self, factor: float) -> "Shape":
        """The same shape with every count multiplied by ``factor``."""
        return replace(
            self,
            items=max(1, round(self.items * factor)),
            cites=max(1, round(self.cites * factor)),
            undefined_cites=round(self.undefined_cites * factor),
        )


@dataclass(frozen=True)
class Corpus:
    """Generated inputs and the outputs a correct resolve produces."""

    document: str
    bbl: str
    aux: bytes
    rendered: str  # plain rendering: the CLI's standard output
    undefined: list[str]  # keys left undefined, in order of first cite
    warnings: list[str]  # final-pass warning lines, in order
    labels: dict[str, str]  # label of every cited key the bbl defines
    exit_code: int
    properties: dict


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3)))


def _key(rng: random.Random, taken: set[str]) -> str:
    while True:
        key = f"{_word(rng)}{rng.randint(1950, 2029)}{rng.choice('abcdefgh')}"
        if key not in taken:
            taken.add(key)
            return key


class _Bbl:
    """Writes bbl source and its plain rendering side by side."""

    def __init__(self, shape: Shape, rng: random.Random, taken: set[str]) -> None:
        self.keys: list[str] = []
        self.labels: dict[str, str] = {}
        source = [_MACROS, "\\begin{thebibliography}{99}\n"]
        rendered = []
        tagged = round(shape.items * shape.tag_share)
        is_tagged = [True] * tagged + [False] * (shape.items - tagged)
        rng.shuffle(is_tagged)
        counter = 0
        self.macro_calls = 0
        for tag in is_tagged:
            key = _key(rng, taken)
            if tag:
                stem = _word(rng)[:3].capitalize()
                year = key[-3:-1]
                suffix = rng.choice("abc")
                source.append(f"\\bibitem[\\lab{{{stem}}}{{{year}}}{{{suffix}}}]{{{key}}}\n")
                label = stem + suffix + year
                self.macro_calls += 1
            else:
                counter += 1
                source.append(f"\\bibitem{{{key}}}\n")
                label = str(counter)
            self.keys.append(key)
            self.labels[key] = label
            blocks_src, blocks_out = self._body(rng, key)
            source.append("\n\\newblock ".join(blocks_src) + "\n\n")
            rendered.append(f"[{label}] " + " ".join(blocks_out) + "\n")
        source.append("\\end{thebibliography}\n")
        self.source = "".join(source)
        self.rendered = "".join(rendered)

    def _body(self, rng: random.Random, key: str) -> tuple[list[str], list[str]]:
        surname = _word(rng).capitalize()
        initial = rng.choice("ABCDEFGHJKLMNPRSTW")
        author_src = f"\\surname{{{surname}}}, {initial}."
        author_out = f"{surname}, {initial}."
        self.macro_calls += 1
        if rng.random() < 0.4:
            author_src += " \\etal"
            author_out += " et~al."
            self.macro_calls += 1
        title = " ".join(_word(rng) for _ in range(rng.randint(2, 6))).capitalize()
        title_src = f"{{\\em {title}}}."
        journal = " ".join(_word(rng).capitalize() for _ in range(rng.randint(1, 3)))
        volume = rng.randint(1, 99)
        page = rng.randint(1, 400)
        year = key[-5:-1]
        kind = rng.random()
        if kind < 0.5:
            venue_src = f"\\jvol{{{journal}}}{{{volume}}}{{{page}}}, {year}."
            venue_out = f"{journal} {volume}, pp.~{page}--9{page}, {year}."
            self.macro_calls += 1
        elif kind < 0.8:
            venue_src = f"In {{\\sc {journal}}}, \\pages{{{page}}}{{{page + 7}}}, {year}."
            venue_out = f"In {journal}, pp.~{page}--{page + 7}, {year}."
            self.macro_calls += 1
        else:
            venue_src = f"{journal},\n  {year}."
            venue_out = f"{journal}, {year}."
        return [author_src, title_src, venue_src], [author_out, f"{title}.", venue_out]


class _Document:
    """Writes document source and its expected rendering side by side."""

    def __init__(self) -> None:
        self.source: list[str] = []
        self.rendered: list[str] = []
        self.line = 1

    def text(self, source: str, rendered: str | None = None) -> None:
        self.source.append(source)
        self.rendered.append(source if rendered is None else rendered)
        self.line += source.count("\n")

    def prose(self, rng: random.Random, words: int) -> None:
        """Plain words with unknown commands, comments and line breaks."""
        for index in range(words):
            roll = rng.random()
            if roll < 0.04:
                command = rng.choice(_UNKNOWN_COMMANDS)
                self.text(f"\\{command}{{{_word(rng)}}}")
            elif roll < 0.05:
                self.text(f"{rng.randint(2, 99)}\\%")
            elif roll < 0.06:
                # A commented-out cite is not a cite at all.
                self.text(f"% see \\cite{{{_word(rng)}}} too\n", "")
            elif roll < 0.07:
                self.text(f"$x_{rng.randint(0, 9)}^2$")
            else:
                self.text(_word(rng))
            if index % 11 == 10:
                self.text("\n")
            else:
                self.text(" ")


def generate(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    """The corpus of ``workload`` for ``seed``, counts scaled by ``scale``."""
    shape = SHAPES[workload].scaled(scale)
    rng = random.Random(f"{workload}:{seed}:{scale}")
    taken: set[str] = set()
    bbl = _Bbl(shape, rng, taken)
    # Fewer missing keys than undefined cites, so some warn only once.
    missing = [_key(rng, taken) for _ in range(max(1, (shape.undefined_cites + 1) // 2))]

    cite_keys: list[list[str]] = []
    pending = list(bbl.keys) if shape.cite_every_item else []
    rng.shuffle(pending)
    undefined_at = set(rng.sample(range(shape.cites), shape.undefined_cites))
    for index in range(shape.cites):
        count = rng.randint(*shape.keys_per_cite)
        keys = [pending.pop() if pending else rng.choice(bbl.keys) for _ in range(count)]
        if index in undefined_at:
            keys[rng.randrange(count)] = missing[index % len(missing)]
        cite_keys.append(keys)

    doc = _Document()
    doc.text("\\documentclass{article}\n\\begin{document}\n\\section{Introduction}\n")
    aux: list[str] = []
    undefined: list[str] = []
    warnings: list[str] = []
    notes = 0
    for keys in cite_keys:
        doc.prose(rng, rng.randint(shape.words_per_cite // 2, shape.words_per_cite * 3 // 2))
        payload = ",".join(keys)
        rendered_keys = []
        for key in keys:
            if key in bbl.labels:
                rendered_keys.append(bbl.labels[key])
            else:
                rendered_keys.append(key)
                if key not in undefined:
                    undefined.append(key)
                    warnings.append(f"{doc.line}: Undefined citation `{key}'.")
        if rng.random() < shape.note_share:
            note = rng.choice(_NOTES)
            notes += 1
            doc.text(f"\\cite[{note}]{{{payload}}}", "[" + ", ".join(rendered_keys + [note]) + "]")
        else:
            doc.text(f"\\cite{{{payload}}}", "[" + ", ".join(rendered_keys) + "]")
        aux.append(f"\\citation{{{payload}}}\n")
        doc.text(rng.choice((" ", ".\n", ", ", ".\n\n")))
    doc.text("\n")
    doc.text("\\bibliographystyle{plain}", "")
    doc.text("\n")
    doc.text("\\bibliography{refs}", bbl.rendered)
    doc.text("\n\\end{document}\n")
    aux.append("\\bibstyle{plain}\n\\bibdata{refs}\n")
    aux.extend(f"\\@citedef{{{key}}}{{{bbl.labels[key]}}}\n" for key in bbl.keys)

    document = "".join(doc.source)
    cited = {key for keys in cite_keys for key in keys}
    key_uses = sum(len(keys) for keys in cite_keys)
    properties = {
        "document_bytes": len(document.encode("utf-8")),
        "bbl_bytes": len(bbl.source.encode("utf-8")),
        "cites": shape.cites,
        "cite_keys": key_uses,
        "cites_with_note": notes,
        "items": shape.items,
        "cites_resolved_share": round(1 - shape.undefined_cites / shape.cites, 4),
        "tag_label_share": round(sum(1 for k in bbl.keys if not bbl.labels[k].isdigit()) / shape.items, 4),
        "macro_definitions": MACRO_DEFINITIONS,
        "macro_calls": bbl.macro_calls,
        "start": "warm" if shape.warm else "cold",
    }
    return Corpus(
        document=document,
        bbl=bbl.source,
        aux="".join(aux).encode("utf-8"),
        rendered="".join(doc.rendered),
        undefined=undefined,
        warnings=warnings,
        labels={key: bbl.labels[key] for key in cited if key in bbl.labels},
        exit_code=1 if undefined else 0,
        properties=properties,
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md.
SHAPES = {
    "paper-cli": Shape(
        items=60, tag_share=0.3, cites=150, undefined_cites=3, keys_per_cite=(1, 3),
        note_share=0.2, words_per_cite=25, cite_every_item=True, warm=True,
    ),
    "long-doc": Shape(
        items=40, tag_share=0.3, cites=2000, undefined_cites=0, keys_per_cite=(2, 2),
        note_share=1.0, words_per_cite=30, cite_every_item=True, warm=True,
    ),
    "big-bib": Shape(
        items=2000, tag_share=0.6, cites=100, undefined_cites=5, keys_per_cite=(1, 3),
        note_share=0.2, words_per_cite=20, cite_every_item=False, warm=False,
    ),
}
