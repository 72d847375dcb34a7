"""Count the code lines of each gf2perfect module, and their total.

A code line is a physical line that carries a token other than a
comment, a line break, an indent or a docstring, where a docstring is
any string that forms a statement of its own.  The tokens come from the
standard library's tokenize, so the layout of blank lines, comments and
docstrings never changes the count.

    python tools/code_lines.py
"""

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / 'src' / 'gf2perfect'

# statement boundaries; comments and NL are dropped before the scan
BOUNDARY = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING)


def code_lines(path):
    """Number of code lines in the Python file at path."""
    with open(path, 'rb') as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in BOUNDARY or tok.type == tokenize.ENDMARKER:
            continue
        if (tok.type == tokenize.STRING and tokens[k - 1].type in BOUNDARY
                and tokens[k + 1].type == tokenize.NEWLINE):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    counts = {path.stem: code_lines(path)
              for path in sorted(PACKAGE.glob('*.py'))}
    for name, n in counts.items():
        print(f'{name:10s} {n:5d}')
    print(f'{"total":10s} {sum(counts.values()):5d}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
