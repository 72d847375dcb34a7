import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gf2perfect
from gf2perfect import canaday, cli
from gf2perfect.cli import run
from gf2perfect.gf2poly import parse, to_hex, to_text

GOLDEN = Path(__file__).parent / 'golden'


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_text(capsys):
    code, out, _ = invoke(capsys, 'certify',
                          'x^2*(x+1)*(x^2+x+1)^2*(x^4+x+1)')
    assert code == 0
    assert 'perfect' in out and 'not perfect' not in out


def test_certify_json(capsys):
    code, out, _ = invoke(capsys, '--format', 'json', 'certify', 'x^3')
    assert code == 0
    payload = json.loads(out)
    assert payload['perfect'] is False
    assert payload['poly_hex'] == '0x8'


def test_sigma_command(capsys):
    code, out, _ = invoke(capsys, 'sigma', 'x^3')
    assert code == 0
    assert out.strip() == 'x^3+x^2+x+1'


def test_factor_command_round_trips_input(capsys):
    rng = random.Random(20)
    for _ in range(25):
        p = rng.randrange(2, 1 << 32)
        code, out, _ = invoke(capsys, '--format', 'json', 'factor', to_text(p))
        payload = json.loads(out)
        assert code == 0 and payload['poly_hex'] == to_hex(p)
        code, out, _ = invoke(capsys, '--format', 'json', 'factor', to_hex(p))
        assert json.loads(out) == payload


def test_factor_text_of_one(capsys):
    # factorize(1) is (), and the text line names the empty product
    assert invoke(capsys, 'factor', '1') == (0, '1 = 1\n', '')


def test_catalog_matches_golden_file(capsys):
    code, out, _ = invoke(capsys, '--format', 'json', 'catalog')
    assert code == 0
    assert out == (GOLDEN / 'catalog.json').read_text()


def test_verify_lemma4_matches_golden_file(capsys):
    code, out, _ = invoke(capsys, '--format', 'json', 'verify-lemma', '4')
    assert code == 0
    assert out == (GOLDEN / 'verify_lemma4.json').read_text()


S1_TEXT = 'x^6(x+1)^4(x^3+x+1)(x^3+x^2+1)(x^4+x^3+1)'


@pytest.mark.parametrize('name, argv', [
    ('verify_lemma1iv.json', ['--format', 'json', 'verify-lemma', '1iv']),
    ('verify_lemma1iv_max_deg3.json',
     ['--format', 'json', 'verify-lemma', '1iv', '--max-deg', '3']),
    ('verify_lemma4_h3_k2.json', ['--format', 'json', 'verify-lemma', '4',
                                  '--h-bound', '3', '--k-bound', '2']),
    ('verify_lemma5.json', ['--format', 'json', 'verify-lemma', '5']),
    ('verify_lemma6.json', ['--format', 'json', 'verify-lemma', '6']),
    ('verify_lemma8.json', ['--format', 'json', 'verify-lemma', '8']),
    ('sigma.txt', ['sigma', '0xdeadbeefcafe1']),
    ('sigma.json', ['--format', 'json', 'sigma', '0xdeadbeefcafe1']),
    ('certify.txt', ['certify', S1_TEXT]),
    ('certify.json', ['--format', 'json', 'certify', S1_TEXT]),
    ('factor.json', ['--format', 'json', 'factor',
                     'x^6(x+1)^3(x^3+x^2+1)(x^3+x+1)']),
    ('search_d12.json', ['--format', 'json', 'search', '--max-deg', '12']),
    ('odd_square_search_d28.json',
     ['--format', 'json', 'odd-square-search', '--max-deg', '28']),
    ('shape_search_24_6.json', ['--format', 'json', 'shape-search',
                                '--deg-bound', '24', '--p-deg-bound', '6']),
    ('catalog.txt', ['catalog']),
    ('shape_search_24_6.txt', ['shape-search', '--deg-bound', '24',
                               '--p-deg-bound', '6']),
    ('factor.txt', ['factor', 'x^6(x+1)^3(x^3+x^2+1)(x^3+x+1)']),
    ('irreducibles_d4.txt', ['irreducibles', '--max-deg', '4']),
])
def test_output_matches_golden_file(capsys, name, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, '')
    assert out == (GOLDEN / name).read_text()


def test_verify_lemma_exit_codes(capsys):
    code, out, _ = invoke(capsys, '--format', 'json', 'verify-lemma', '8',
                          '--h-bound', '30')
    assert code == 0
    assert json.loads(out)['result'] == [1, 2, 3]
    code, out, _ = invoke(capsys, 'verify-lemma', 'parity', 'x^3')
    assert code == 1
    code, out, _ = invoke(capsys, 'verify-lemma', 'parity',
                          'x^2(x+1)(x^2+x+1)')
    assert code == 0


def test_verify_lemma_5_and_6(capsys):
    for lemma in ('5', '6'):
        code, out, _ = invoke(capsys, '--format', 'json', 'verify-lemma',
                              lemma, '--p-deg-bound', '4', '--n-bound', '2')
        assert code == 0
        assert json.loads(out)['violations'] == []


@pytest.mark.parametrize('lemma, row', [
    ('5', {'p_hex': '0x7', 'n': 1, 'root_hex': '0xb', 'power': 2}),
    ('6', {'p_hex': '0x7', 'n': 1, 'q_hex': '0xb', 'm': 2}),
])
def test_verify_lemma_5_and_6_report_violations(capsys, monkeypatch, lemma,
                                                row):
    # a stand-in sigma((x^2+x+1)^2) = (x^3+x+1)^2 runs the encoders of
    # the violation rows, which no real bound reaches
    monkeypatch.setattr(canaday, '_sigma_even_powers',
                        lambda *bounds: [(0b111, 1, ((0b1011, 2),))])
    code, out, _ = invoke(capsys, '--format', 'json', 'verify-lemma', lemma)
    assert code == 1
    payload = json.loads(out)
    assert payload['ok'] is False
    assert payload['violations'] == [row]


def test_search_summary_line_and_blob(capsys):
    code, out, _ = invoke(capsys, '--format', 'json', 'search',
                          '--max-deg', '7')
    assert code == 0
    summary, blob = out.splitlines()
    assert summary == ('# exhaustive degree_bound=7 examined=254 pruned=0 '
                       'found=4 polys=0x6,0x24,0x36,0x78')
    payload = json.loads(blob)
    assert payload['candidates_examined'] == 254
    assert [c['poly_hex'] for c in payload['certificates']] == \
        ['0x6', '0x24', '0x36', '0x78']


def test_global_flags_accepted_after_subcommand(capsys):
    before = invoke(capsys, '--format', 'json', 'certify', 'x^2+x')
    after = invoke(capsys, 'certify', 'x^2+x', '--format', 'json')
    assert before == after
    trailing = invoke(capsys, 'shape-search', '--deg-bound', '12',
                      '--p-deg-bound', '4', '--seed', '1', '--format', 'json')
    assert trailing[0] == 0
    # a flag before the subcommand survives the subparser defaults
    mixed = invoke(capsys, '--format', 'json', 'shape-search',
                   '--deg-bound', '12', '--p-deg-bound', '4', '--seed', '1')
    assert mixed[1] == trailing[1]
    # each lemma takes the global flags before, inside or after its name
    bounds = ('--p-deg-bound', '4', '--n-bound', '2')
    lemma = invoke(capsys, '--format', 'json', 'verify-lemma', '5', *bounds)
    assert lemma[0] == 0 and json.loads(lemma[1])['bounds'] == \
        {'p_deg_bound': 4, 'n_bound': 2}
    assert invoke(capsys, 'verify-lemma', '5', *bounds,
                  '--format', 'json') == lemma
    assert invoke(capsys, 'verify-lemma', '--format', 'json', '5',
                  *bounds) == lemma
    parity = invoke(capsys, 'verify-lemma', 'parity', S1_TEXT, '--seed', '1')
    assert parity == invoke(capsys, 'verify-lemma', 'parity', S1_TEXT)
    assert parity == (0, 'lemma parity: ok\n', '')


def test_verify_lemma_rejects_foreign_arguments(capsys):
    # a bound flag or a polynomial that the chosen lemma does not take
    for argv in (('verify-lemma', '5', '--h-bound', '10'),
                 ('verify-lemma', '8', '--max-deg', '3'),
                 ('verify-lemma', '5', '0x7'),
                 ('verify-lemma', 'parity', '0x7', '--h-bound', '3')):
        code, out, _ = invoke(capsys, *argv)
        assert (code, out) == (2, ''), argv


def test_odd_square_search_cli(capsys):
    code, out, _ = invoke(capsys, '--format', 'json', 'odd-square-search',
                          '--max-deg', '12')
    assert code == 0
    payload = json.loads(out.splitlines()[1])
    assert payload['certificates'] == []


def test_irreducibles_cli(capsys):
    code, out, _ = invoke(capsys, '--format', 'json', 'irreducibles',
                          '--max-deg', '4')
    payload = json.loads(out)
    assert code == 0
    assert payload['count'] == 8
    assert payload['counts_by_degree'] == {'1': 2, '2': 1, '3': 2, '4': 3}


def test_repeated_runs_are_byte_identical(capsys):
    first = invoke(capsys, '--format', 'json', 'factor', '0xfffe')
    second = invoke(capsys, '--format', 'json', 'factor', '0xfffe')
    assert first == second
    seeded = invoke(capsys, '--format', 'json', '--seed', '7', 'factor',
                    '0xfffe')
    assert seeded[1] == first[1]  # canonical factorization, any seed


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, 'certify', 'x^^2')[0] == 2
    assert invoke(capsys, 'search', '--max-deg', '0')[0] == 2
    assert invoke(capsys, 'certify', '0x0')[0] == 2
    assert invoke(capsys, 'verify-lemma', 'parity')[0] == 2
    code, _, err = invoke(capsys, 'certify', 'x+%')
    assert code == 2 and 'position 2' in err


@pytest.mark.parametrize('argv', [
    ('search', '--max-deg', '25'),
    ('search', '--max-deg', '64'),
    ('odd-square-search', '--max-deg', '102'),
    ('odd-square-search', '--max-deg', '0'),
    ('odd-square-search', '--max-deg', '-2'),
    ('certify', 'x^99999999999'),
    ('certify', '(' * 900 + 'x' + ')' * 900),
    ('certify', '(' * 3000 + 'x' + ')' * 3000),
    ('irreducibles', '--max-deg', '40'),
    ('shape-search', '--deg-bound', '40', '--p-deg-bound', '40'),
    ('verify-lemma', '5', '--p-deg-bound', '40'),
    ('verify-lemma', '5', '--p-deg-bound', '18'),
    ('verify-lemma', '5', '--p-deg-bound', '20'),
    ('verify-lemma', '6', '--p-deg-bound', '18'),
    ('verify-lemma', '6', '--p-deg-bound', '20'),
    ('shape-search', '--deg-bound', '801', '--p-deg-bound', '8'),
    ('shape-search', '--deg-bound', '100000', '--p-deg-bound', '8'),
    ('verify-lemma', '1iv', '--max-deg', '1001'),
    ('verify-lemma', '4', '--h-bound', '601'),
    ('verify-lemma', '4', '--k-bound', '601'),
    ('verify-lemma', '4', '--h-bound', '2000', '--k-bound', '2000'),
    ('verify-lemma', '5', '--p-deg-bound', '13', '--n-bound', '25'),
    ('verify-lemma', '5', '--n-bound', '280'),
    ('verify-lemma', '6', '--p-deg-bound', '13', '--n-bound', '25'),
    ('verify-lemma', '8', '--h-bound', '601'),
    ('verify-lemma', '8', '--h-bound', '800'),
    ('certify', '0x' + 'f' * 5000),
    ('factor', '0x2' + '0' * 1024),
    ('certify', '(x^4000+1)(x^4000+1)'),
    ('sigma', 'x^4096(x+1)'),
    ('verify-lemma', 'parity', 'x^2048*x^2049'),
])
def test_oversize_bounds_exit_2(capsys, argv):
    # every value here is rejected before any allocation
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ''
    assert err.startswith('error: ')


def test_closed_pipe_exits_quietly():
    # as in `gf2perfect irreducibles --max-deg 16 | head -1`: the output
    # overflows the pipe, and the reader closes it after one line
    env = {**os.environ,
           'PYTHONPATH': str(Path(gf2perfect.__file__).parents[1])}
    with subprocess.Popen(
            [sys.executable, '-c', 'from gf2perfect.cli import main; main()',
             'irreducibles', '--max-deg', '16'],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b'x\n'
        proc.stdout.close()
        assert proc.stderr.read() == b''
        assert proc.wait(timeout=60) not in (1, 2)


COMMANDS = ('factor', 'sigma', 'certify', 'catalog', 'search',
            'shape-search', 'odd-square-search', 'irreducibles',
            'verify-lemma')
LEMMAS = ('1iv', '4', '5', '6', '8', 'parity')


def test_unknown_subcommand_exits_2(capsys):
    assert run(['no-such-command']) == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'no-such-command'" in err
    # some Python versions quote the choices, others do not
    listed = err.split('(choose from ', 1)[1].split(')', 1)[0]
    assert listed.replace("'", '').split(', ') == list(COMMANDS)


@pytest.mark.parametrize('path', [()] + [(name,) for name in COMMANDS] +
                         [('verify-lemma', name) for name in LEMMAS])
def test_help_names_each_parser(capsys, path):
    code, out, err = invoke(capsys, *path, '-h')
    assert (code, err) == (0, '')
    assert out.startswith(' '.join(('usage: gf2perfect',) + path) + ' ')


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = invoke(capsys, '--help')
    assert code == 0
    assert '{' + ','.join(COMMANDS) + '}' in out
    code, out, _ = invoke(capsys, 'verify-lemma', '--help')
    assert code == 0
    assert '{' + ','.join(LEMMAS) + '}' in out


@pytest.mark.parametrize('argv, code, most', [
    (['-h'], 0, 2),
    (['no-such-command'], 2, 2),
    (['--form', 'json', 'shape-search', '--deg-bound', '24',
      '--p-deg-bound', '6'], 0, 3),
    (['verify-lemma', '5'], 0, 4),
], ids=['help', 'typo', 'shape-search', 'verify-lemma'])
def test_a_run_builds_only_its_own_parsers(capsys, monkeypatch, argv, code,
                                           most):
    # the shared parent, the top level, and each parser argparse picks
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, '__init__', counting_init)
    got, out, _ = invoke(capsys, *argv)
    assert got == code
    assert len(built) <= most
    if 'shape-search' in argv:
        assert out == (GOLDEN / 'shape_search_24_6.json').read_text()


def test_import_builds_no_parser():
    env = {**os.environ,
           'PYTHONPATH': str(Path(gf2perfect.__file__).parents[1])}
    subprocess.run([sys.executable, '-c', 'import argparse\n'
                    'def fail(*args, **kwargs): raise AssertionError\n'
                    'argparse.ArgumentParser.__init__ = fail\n'
                    'import gf2perfect.cli'],
                   env=env, check=True, timeout=60)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site .pth files, which may import typing, out of the count
    src = str(Path(gf2perfect.__file__).parents[1])
    code = ('import sys\n'
            f'sys.path.insert(0, {src!r})\n'
            'import argparse, json, signal\n'
            'before = set(sys.modules)\n'
            'import gf2perfect.cli\n'
            'print(*sorted(set(sys.modules) - before))')
    added = subprocess.run([sys.executable, '-S', '-c', code],
                           capture_output=True, text=True, check=True,
                           timeout=60).stdout.split()
    assert 'gf2perfect.cli' in added
    assert not {'dataclasses', 'inspect', 'typing'} & set(added)


def eager_parser():
    """Every parser built up front from cli._COMMANDS, as a reference."""
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument('-h', '--help', action='help',
                        help='show this help message and exit')
    common.add_argument('--format', choices=('text', 'json'),
                        help='output format (default: text)')
    common.add_argument('--seed', type=int,
                        help='accepted for compatibility; has no effect, '
                             'since factorization is deterministic')
    top = argparse.ArgumentParser(
        prog='gf2perfect', parents=[common], add_help=False,
        description='Sum-of-divisors arithmetic and perfect-polynomial '
                    'searches over GF(2)[x].')

    def add(parser, dest, commands):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (handler, arguments) in commands.items():
            p = sub.add_parser(name, parents=[common], add_help=False)
            p.set_defaults(handler=handler)
            if isinstance(arguments, dict):
                add(p, 'lemma', arguments)
            else:
                for flags, kwargs in arguments:
                    p.add_argument(*flags, **kwargs)

    add(top, 'subcommand', cli._COMMANDS)
    return top


def parse_outcome(capsys, parser, argv):
    try:
        ns = parser.parse_args(argv,
                               argparse.Namespace(format='text', seed=None))
        code, parsed = None, vars(ns)
    except SystemExit as exc:
        code, parsed = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, parsed


@pytest.mark.parametrize('argv', [
    [], ['-h'], ['--help'], ['--he'], ['verify-lemma', '-h'],
    *([name, '--help'] for name in COMMANDS),
    *(['verify-lemma', name, '-h'] for name in LEMMAS),
    ['--format', 'json', '-h', 'verify-lemma', '4'],
    ['no-such-command'], ['verify-lemma', '7'], ['verify-lemma'],
    ['--format', 'json'], ['search'], ['verify-lemma', 'parity'],
    ['shape-search', '--deg-bound', '40'],
    ['--form', 'json', 'shape-search', '--deg-bound', '40',
     '--p-deg-bound', '8'],
    ['--fo=json', 'verify-lemma', '5', '--p', '4'],
    ['shape-search', '--deg', '40', '--p-deg', '8', '--no'],
    ['--', 'search', '--max-deg', '5'], ['certify', '--', '-x'],
    ['verify-lemma', '5', '--', '--n-bound'],
    ['--seed', '-1', 'factor', 'x'], ['--seed=-1', 'catalog'],
    ['--seed', '-1', '--format', 'json', 'search', '--max-deg', '3'],
    ['factor', 'x', '--format', 'json'],
    ['verify-lemma', '4', '--h-bound', '3', '--format', 'json'],
    ['--format', 'json', 'verify-lemma', '--format', 'text', '8'],
    ['--format', 'xml', 'catalog'], ['--format'], ['--bogus', 'catalog'],
    ['catalog', 'extra'], ['search', '--max-deg', 'x'],
    ['verify-lemma', '5', '--h-bound', '10'],
])
def test_on_demand_parsers_match_eager_reference(capsys, monkeypatch, argv):
    # cli's stand-ins offer argparse nothing but parse_known_args; an
    # argparse version that calls more on a picked subparser fails here
    for columns in ('80', '40'):
        monkeypatch.setenv('COLUMNS', columns)
        assert parse_outcome(capsys, cli.build_parser(), argv) == \
            parse_outcome(capsys, eager_parser(), argv)


def test_large_poly_arguments_round_trip(capsys):
    p = parse('x^6(x+1)^4(x^3+x+1)(x^3+x^2+1)(x^4+x^3+1)')
    code, out, _ = invoke(capsys, '--format', 'json', 'certify', to_text(p))
    payload = json.loads(out)
    assert payload['perfect'] is True and payload['omega'] == 5
