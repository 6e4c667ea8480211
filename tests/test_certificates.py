import hashlib
import time
from dataclasses import fields
from itertools import zip_longest

import pytest
from hypothesis import given, strategies as st

from selogic.certificates import (
    _lex,
    parse_focused_proof,
    parse_unfocused_proof,
    print_focused_proof,
    print_unfocused_proof,
)
from selogic.corpus import load_corpus
from selogic.errors import ParseError
from selogic.focusing import BLUR, DECIDE, FINIT, FONE, FProof, FSequent, FTENSOR, check_focused, defocus
from selogic.formulas import Sequent
from selogic.cli import main
from selogic.minsky import Configuration, print_machine, run
from selogic.reduction import encode_halting, proof_from_trace
from selogic.unfocused import INIT, ONE_RULE, TENSOR, WEAK, UProof, check_unfocused, proof_nodes


FIN0 = FProof(FINIT, principal=0)


def test_pinned_focused_text():
    proof = FProof(DECIDE, principal=0, premises=(FIN0,))
    assert print_focused_proof(proof) == "(decide 0 (finit 0))\n"


def test_pinned_ftensor_text():
    pair = FProof(FTENSOR, kept=(), split=(0,), premises=(FIN0, FIN0))
    proof = FProof(DECIDE, principal=0, premises=(pair,))
    assert print_focused_proof(proof) == "(decide 0 (ftensor (kept) (left 0) (finit 0) (finit 0)))\n"


def test_pinned_unfocused_text():
    leaf = UProof(INIT, pair=(0, 1))
    proof = UProof(TENSOR, principal=0, split=(1,), premises=(leaf, leaf))
    assert print_unfocused_proof(proof) == "(tensor 0 (left 1) (init 0 1) (init 0 1))\n"


def test_parse_ignores_comments_and_whitespace():
    text = """
    ; a certificate with commentary
    (decide 0
       ; the axiom closes immediately
       (finit 0))  ; done
    """
    assert parse_focused_proof(text) == FProof(DECIDE, principal=0, premises=(FIN0,))


def test_parse_is_inverse_of_print_on_small_proofs():
    texts = [
        "(init 0 1)\n",
        "(one)\n",
        "(top 2)\n",
        "(contr 1 (qm 2 (weak 0 (init 0 1))))\n",
        "(with 0 (plus1 0 (init 0 1)) (plus2 0 (init 0 1)))\n",
        "(tensor 1 (left 0) (init 0 1) (bang 0 (one)))\n",
    ]
    for text in texts:
        assert print_unfocused_proof(parse_unfocused_proof(text)) == text
    ftexts = [
        "(f1)\n",
        "(udecide 1 (blur (par 0 (ldecide 0 (finit 0)))))\n",
        "(fbang (kept 0 2) (fplus2 (blur (bot 1 (decide 0 (finit 0))))))\n",
    ]
    for text in ftexts:
        assert print_focused_proof(parse_focused_proof(text)) == text


# The bundled machines whose runs halt with at least one step; their
# synthesized certificates exercise every rule the printers emit.
HALTING = ["halt_only", "incra_halt", "incrb_halt", "gated_zero", "drain_a", "drain_b", "transfer_ab"]


@pytest.fixture(scope="module")
def corpus_proofs():
    out = {}
    for name in HALTING:
        m, init = load_corpus(name)
        trace = run(m, init, 200).trace
        bundle = encode_halting(m, init)
        fp = proof_from_trace(bundle, trace)
        up = defocus(fp, bundle.signature, FSequent(bundle.goal))
        out[name] = (bundle, fp, up)
    return out


@pytest.mark.parametrize("name", HALTING)
def test_focused_roundtrip_on_corpus(name, corpus_proofs):
    bundle, fp, _ = corpus_proofs[name]
    text = print_focused_proof(fp)
    again = parse_focused_proof(text)
    assert again == fp
    assert print_focused_proof(again) == text
    check_focused(bundle.signature, FSequent(bundle.goal), again)


@pytest.mark.parametrize("name", HALTING)
def test_unfocused_roundtrip_on_corpus(name, corpus_proofs):
    bundle, _, up = corpus_proofs[name]
    text = print_unfocused_proof(up)
    again = parse_unfocused_proof(text)
    assert again == up
    assert print_unfocused_proof(again) == text
    check_unfocused(bundle.signature, Sequent(bundle.goal), again)


def _ladder_proofs(name: str, a: int):
    m, init = load_corpus(name)
    init = Configuration(init.state, a, 0)
    bundle = encode_halting(m, init)
    fp = proof_from_trace(bundle, run(m, init, 10_000).trace)
    return fp, defocus(fp, bundle.signature, FSequent(bundle.goal))


# sha256 of the printed focused and unfocused certificates: the layout must
# not move unnoticed.
PRINTED_DIGESTS = {
    "halt_only": (
        "fdc78efc4f5d2f0cb1eac0b375326e46e028c4079d0abc80f8efbd0333f292d7",
        "6dffa706d523b86d9134afb7bfa9e935033ab41269cdc6f0e85635ce7fe33038",
    ),
    "incra_halt": (
        "e535658770242ed89620e40da838699d62af60e95d790cea8ca3d4ed316e5903",
        "72847f524575555f60fee44b439112b28dac57785c74bf3c37662b77e631aa6c",
    ),
    "incrb_halt": (
        "6dea28086d3427a1fbbedec23dea3f9422af5db932845b5c1d2296f37da813e6",
        "e886b703b7c2bc943d5e60eba4870d72fd41093512ad492de02ab42c8ec43502",
    ),
    "gated_zero": (
        "c2e39a37b5aac51589ffd027883a54019547e8009667ecc5e1f7be306a3dbfa0",
        "ea0bf4bbdac65f5022e5bd156b4141f17795d1c611a52b974920af96ba5f0c47",
    ),
    "drain_a": (
        "1a43dec7ca96d728ae8abad7852333e32900088ec6a5b950b467881494ec5ae3",
        "c10539d0ca843a2e5157723e81398a1aa719e5bad2ac3362aa893e2cff15e9d0",
    ),
    "drain_b": (
        "1a43dec7ca96d728ae8abad7852333e32900088ec6a5b950b467881494ec5ae3",
        "c10539d0ca843a2e5157723e81398a1aa719e5bad2ac3362aa893e2cff15e9d0",
    ),
    "transfer_ab": (
        "29cc8d94bdb205a645b70bfc96fca0630053bebfd125733f39f3cb94b66a6794",
        "54181f370a64576211874c6a4cabd9e6362252fa0f15a9a5e70464a5f6cdb71e",
    ),
    # longer runs, with lines far wider than 96 columns
    "drain_a@40": (
        "97ba3828cd5aa2150b0159540dd16b1ca619ac8f1b5d43ad2b8fc17ea99db5ee",
        "b26a6a1528b21dcddd25231788a3be0c6e90a8339bc7812e8b9d214ff2d0b74e",
    ),
    "transfer_ab@30": (
        "f0ccd992e1b6a34680fbb918be50f161867fe1aed85fbb444e2426a7ae550528",
        "6a67a65a12cc986055ff5217264a570f4ccd63a26bf869f1928507dc989ecba4",
    ),
}

# sha256 of the same texts with every run of whitespace collapsed to one
# space, as printed before the last premise kept its parent's indent: that
# change moved whitespace and nothing else.
COLLAPSED_DIGESTS = {
    "halt_only": (
        "1d3a24c59388ed2bac16cb9179158ad576e067f1e89ea0d6c8fa830cd081e4aa",
        "9a67fbabd97d2cecb7c50a95cd7915f40c3ba33590898d154a25469f5b57b370",
    ),
    "incra_halt": (
        "9f9a5a794f63fbe044cc544ed4a04ae01030dd6861c9c8722738d9b2a7ef82f6",
        "f6f2022d1310660ed98147b653158c8151ee88f19a6bb971dcac55ab42a3867a",
    ),
    "incrb_halt": (
        "a56090d4fd40a8c82bc91bd2463907179732e257f6c3170bb8960ce089422da4",
        "53e510c78eabbf85d1abf0b7f3f18c246f226ee0ff09c95fdcdadd3dad51ce35",
    ),
    "gated_zero": (
        "a1618331f94ff503f08bf110492b78627b05d75816f73abb226c86d340e42762",
        "5b81fb27947d7bf610984d4ff76804be7778078d0bead977264dc4eef35bed82",
    ),
    "drain_a": (
        "bd891ef4b12d0e2a5085531df14b139fa159aa4ffe7d237ae8dd240e68a4d943",
        "e3c379fe4065cd055f9ce77ca5dd6ad626e436ed7eec1064b2da80013e8850a7",
    ),
    "drain_b": (
        "bd891ef4b12d0e2a5085531df14b139fa159aa4ffe7d237ae8dd240e68a4d943",
        "e3c379fe4065cd055f9ce77ca5dd6ad626e436ed7eec1064b2da80013e8850a7",
    ),
    "transfer_ab": (
        "387242bc5e3033af3495fa2dc55c2e2daf885e7c39009a5d1a164a64d1740d31",
        "b42a94359c43e0646458a24f198fb655f975a7c1030760e2c92a388f2bcbcce5",
    ),
    # longer runs
    "drain_a@40": (
        "b64638287e7cd36043630ea41c6156705a36a875b93592ca2ab26f406c51c34c",
        "9a38325b67b252793fd9bcbc6457f3a78785c2120f4dec0bca6465128c451323",
    ),
    "transfer_ab@30": (
        "afc15d5d88dbda94edd585cc15b10de2a42b9a30dec58a2ea5ba4f24b3b37fe3",
        "1824c494e0599522bba00b70f5db5d94753e828e2ae97b2e5ae2c63770ff040d",
    ),
}


@pytest.mark.parametrize("name", sorted(PRINTED_DIGESTS))
def test_printed_text_matches_pinned_digests(name, corpus_proofs):
    if "@" in name:
        family, a = name.split("@")
        fp, up = _ladder_proofs(family, int(a))
    else:
        _, fp, up = corpus_proofs[name]
    texts = print_focused_proof(fp), print_unfocused_proof(up)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert tuple(map(digest, texts)) == PRINTED_DIGESTS[name]
    assert tuple(digest(" ".join(text.split())) for text in texts) == COLLAPSED_DIGESTS[name]


def test_printed_bytes_per_step_stay_flat_as_runs_grow():
    # The encoding's spine continues through the right premise of every
    # ftensor; indenting it deeper at each one made the text quadratic
    # (924 focused bytes per step at 302 steps, 12 165 at 1 202).
    per_step = {}
    for a in (300, 1200):
        fp, up = _ladder_proofs("drain_a", a)
        steps = a + 2  # drain_a started at a halts after a + 2 steps
        per_step[a] = [len(print_focused_proof(fp)) / steps, len(print_unfocused_proof(up)) / steps]
    for short, long in zip(per_step[300], per_step[1200]):
        assert long <= 1.2 * short


@pytest.mark.parametrize("name", HALTING)
def test_rendered_lines_stay_inside_96_columns(name, corpus_proofs):
    _, fp, up = corpus_proofs[name]
    for text in (print_focused_proof(fp), print_unfocused_proof(up)):
        assert all(len(line) <= 96 for line in text.splitlines())


# --- deep trees, under the default recursion limit --------------------------


def _same_tree(a, b) -> bool:
    """Structural equality without recursing (``==`` and ``repr`` recurse)."""
    own = lambda node: (
        type(node),
        len(node.premises),
        *(getattr(node, f.name) for f in fields(node) if f.name != "premises"),
    )
    return all(
        x is not None and y is not None and own(x) == own(y)
        for x, y in zip_longest(proof_nodes(a), proof_nodes(b))
    )


def _focused_spine(nodes: int) -> FProof:
    proof = FProof(FONE)
    for k in range(nodes - 1):
        proof = FProof(BLUR, premises=(proof,)) if k % 2 else FProof(DECIDE, principal=0, premises=(proof,))
    return proof


def _unfocused_spine(nodes: int) -> UProof:
    proof = UProof(ONE_RULE)
    for _ in range(nodes - 1):
        proof = UProof(WEAK, principal=0, premises=(proof,))
    return proof


@pytest.mark.parametrize(
    "spine,printer,parser",
    [
        (_focused_spine, print_focused_proof, parse_focused_proof),
        (_unfocused_spine, print_unfocused_proof, parse_unfocused_proof),
    ],
)
def test_twenty_thousand_node_spines_print_and_parse_back(spine, printer, parser):
    proof = spine(20_000)
    start = time.perf_counter()
    text = printer(proof)
    again = parser(text)
    assert time.perf_counter() - start < 5.0
    assert _same_tree(again, proof)
    assert sum(1 for _ in proof_nodes(again)) == 20_000
    # a sole premise never indents, so every line starts at column 0
    assert text.count("\n") == 20_000
    assert not any(line.startswith(" ") for line in text.splitlines())


def test_same_tree_sees_one_changed_node():
    proof = _focused_spine(50)
    text = print_focused_proof(proof)
    assert not _same_tree(parse_focused_proof(text.replace("(f1)", "(finit 0)")), proof)
    assert not _same_tree(_focused_spine(49), proof)


def test_six_hundred_step_roundtrip_under_the_default_recursion_limit(tmp_path, capsys):
    # drain_a from a = 600: every layer of the pipeline walks certificates
    # thousands of nodes deep, and the CLI reports instead of crashing
    m, _ = load_corpus("drain_a")
    init = Configuration("q0", 600, 0)
    path = tmp_path / "drain_a_600.2rm"
    path.write_text(print_machine(m, init))
    start = time.perf_counter()
    assert main(["roundtrip", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "steps: 602" in out
    assert "agreement: yes" in out
    bundle = encode_halting(m, init)
    fp = proof_from_trace(bundle, run(m, init, 1000).trace)
    up = defocus(fp, bundle.signature, FSequent(bundle.goal))
    assert _same_tree(parse_focused_proof(print_focused_proof(fp)), fp)
    assert _same_tree(parse_unfocused_proof(print_unfocused_proof(up)), up)
    assert time.perf_counter() - start < 30.0


def test_twenty_four_hundred_step_roundtrip_under_the_default_recursion_limit(tmp_path, capsys):
    # drain_a from a = 2400: each layer copies premise contexts by slices,
    # so four times the run costs far less than sixteen times the time
    m, _ = load_corpus("drain_a")
    init = Configuration("q0", 2400, 0)
    path = tmp_path / "drain_a_2400.2rm"
    path.write_text(print_machine(m, init))
    start = time.perf_counter()
    assert main(["roundtrip", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "steps: 2402" in out
    assert "agreement: yes" in out
    bundle = encode_halting(m, init)
    fp = proof_from_trace(bundle, run(m, init, 3000).trace)
    up = defocus(fp, bundle.signature, FSequent(bundle.goal))
    assert _same_tree(parse_focused_proof(print_focused_proof(fp)), fp)
    assert _same_tree(parse_unfocused_proof(print_unfocused_proof(up)), up)
    assert time.perf_counter() - start < 30.0


def test_deep_text_parses_or_fails_with_a_parse_error():
    deep = "(blur " * 3000 + "(f1)" + ")" * 3000
    assert sum(1 for _ in proof_nodes(parse_focused_proof(deep))) == 3001
    with pytest.raises(ParseError) as e:
        parse_focused_proof("(" * 2000)
    assert "unclosed parenthesis" in str(e.value)
    assert (e.value.line, e.value.column) == (1, 2000)
    with pytest.raises(ParseError) as e:
        parse_focused_proof("(blur " * 3000 + "(oops)" + ")" * 3000)
    assert "oops: not a focused rule" in str(e.value)
    assert (e.value.line, e.value.column) == (1, 6 * 3000 + 1)
    with pytest.raises(ParseError) as e:
        parse_unfocused_proof("(weak 0 " * 3000 + "(one)" + ")" * 2999)
    assert "unclosed parenthesis" in str(e.value)


# Rule names of both calculi, so that fuzzed text reaches the argument
# readers of every rule and not only the lexer; whole leaves and rule
# openings make some draws well-formed, and those must round-trip.
_FUZZ_WORDS = [
    "init", "one", "top", "tensor", "with", "plus1", "plus2", "par", "bot", "qm", "bang",
    "weak", "contr", "finit", "f1", "ftensor", "fplus1", "fplus2", "fbang", "blur",
    "decide", "ldecide", "udecide", "kept", "left",
]
_FUZZ_PIECES = ["(one)", "(f1)", "(init 0 1)", "(finit 0)", "(blur", "(weak 0", "(kept)", "(left 1)"]
_FUZZ_TEXT = st.lists(
    st.tuples(
        st.sampled_from(["(", ")"])
        | st.sampled_from(_FUZZ_WORDS + _FUZZ_PIECES)
        | st.integers(0, 12).map(str),
        st.sampled_from(["", " ", "\n", "\t"]),
    ),
    max_size=24,
).map(lambda parts: "".join(token + space for token, space in parts)) | st.recursive(
    # balanced text: every form is read, not only the first bad parenthesis
    st.sampled_from(_FUZZ_WORDS) | st.integers(0, 3).map(str),
    lambda inner: st.tuples(st.sampled_from(_FUZZ_WORDS), st.lists(inner, max_size=4)).map(
        lambda form: "(" + " ".join([form[0], *form[1]]) + ")"
    ),
    max_leaves=30,
)


@given(_FUZZ_TEXT)
def test_fuzzed_text_gives_a_proof_or_a_parse_error(text):
    for parser, printer in (
        (parse_focused_proof, print_focused_proof),
        (parse_unfocused_proof, print_unfocused_proof),
    ):
        try:
            proof = parser(text)
        except ParseError:
            continue
        assert _same_tree(parser(printer(proof)), proof)


def _char_lex(text):
    """The character-at-a-time lexer that one regular expression replaced."""
    line, col = 1, 1
    i = 0
    out = []
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append((ch, ch, line, col))
            i += 1
            col += 1
        elif ch.isdigit() or ch.islower() or ch == "_":
            start, start_col = i, col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            word = text[start:i]
            if word.isascii() and word.isdigit():
                out.append(("num", int(word), line, start_col))
            else:
                out.append(("sym", word, line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col, None)
    return out


# Characters the two lexers could read differently: whitespace they skip or
# reject, comments, ASCII and other digits, upper- and lower-case letters
# outside ASCII, title case, and letters that are neither.  Lower-case
# characters that are not alphanumeric (the circled letters) are left out:
# the character loop never advances past them.
_LEX_PIECES = st.sampled_from(
    ["(", ")", " ", "\t", "\r", "\n", "\x0b", "\xa0", ";", "; c (x)\n", "_", "a", "Z",
     "0", "12", "9a", "\u00b2", "\u0663", "\u00e9", "\u00c9", "\u01c5", "\u00aa", "\u2170",
     "\u05d0", "-", "[", "kept", "x_1"]
)


@given(st.lists(_LEX_PIECES, max_size=16).map("".join))
def test_lexer_matches_the_character_loop(text):
    try:
        expected = _char_lex(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            _lex(text, None)
        assert (got.value.message, got.value.line, got.value.column) == (
            e.message, e.line, e.column,
        )
    else:
        assert _lex(text, None) == expected


def test_lexer_rejects_lower_case_symbols_that_are_not_letters():
    # the character loop never returned on these
    with pytest.raises(ParseError) as e:
        parse_focused_proof("(f1 \u24d0)")
    assert "unexpected character '\u24d0'" in str(e.value)
    assert (e.value.line, e.value.column) == (1, 5)


def test_comment_at_the_end_is_not_read():
    assert parse_focused_proof("(f1) ; (f1) trailing words") == FProof(FONE)
    assert parse_focused_proof("(f1)\n  \t") == FProof(FONE)


# --- rejected inputs --------------------------------------------------------


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", "empty certificate"),
        ("(decide 0 (finit 0)", "unclosed parenthesis"),
        (") (finit 0)", "unmatched closing parenthesis"),
        ("(f1) (f1)", "trailing input after the certificate"),
        ("(decide 0 [finit 0])", "unexpected character '['"),
        ("finit", "expected a (rule ...) form"),
        ("(frobnicate 3)", "frobnicate: not a focused rule"),
        ("(decide x (finit 0))", "decide: expected a position number"),
        ("(decide)", "decide: too few arguments"),
        ("(fbang 0 (f1))", "fbang: expected (kept ...) with position numbers"),
        # finit never carries a kept list: leftovers are absorbed implicitly
        ("(finit (kept 1) 0)", "finit: expected a position number"),
        # a digit that is not decimal, which int() cannot read
        ("(finit ²)", "finit: expected a position number"),
    ],
)
def test_focused_parse_errors(text, needle):
    with pytest.raises(ParseError) as e:
        parse_focused_proof(text)
    assert needle in str(e.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("(finit 0)", "finit: not an unfocused rule"),
        ("(tensor 0 (left 1) (init 0 1) (init 0 1) (one))", "tensor: too many arguments"),
        ("(tensor 0 (kept 1) (init 0 1) (one))", "tensor: expected (left ...) with position numbers"),
        ("(init 0 one)", "init: expected a position number"),
    ],
)
def test_unfocused_parse_errors(text, needle):
    with pytest.raises(ParseError) as e:
        parse_unfocused_proof(text)
    assert needle in str(e.value)


def test_parse_error_positions_point_at_the_offending_token():
    with pytest.raises(ParseError) as e:
        parse_focused_proof("(decide 0\n  (oops 1))")
    assert (e.value.line, e.value.column) == (2, 3)
    with pytest.raises(ParseError) as e:
        parse_focused_proof("(f1)\n(f1)")
    assert (e.value.line, e.value.column) == (2, 1)


def test_parse_error_carries_filename():
    with pytest.raises(ParseError) as e:
        parse_focused_proof("(", filename="proof.cert")
    assert str(e.value).startswith("proof.cert:1:1:")
