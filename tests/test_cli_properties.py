"""The exit-code contract of the CLI, over random argv.

Every command ends in 0, 2 or 3, or in 1 only beside a report of a real
mismatch; exits 2 and 3 write exactly one ``error:`` line and nothing to
stdout, usage errors included; and a second identical run prints the
same bytes.  The argvs mix builtins, random expressions, bad specs, usage
errors and all three output formats, at small sizes so the test stays
fast.
"""

import contextlib
import io
import re

from hypothesis import given, settings, strategies as st

from hooktrees import cli, families

BUILTINS = {  # spec: the same family as an expression
    "binary": "(1+t)^2", "plane": "1/(1-t)", "labelled": "exp(t)", "kary:3": "(1+t)^3",
    "yang:1/2,3": "(1+1/2*t)^3", "yang:-1,2": "(1-t)^2", "polyalpha:2": "(1-t)^(-2)",
}
BAD_BUILTINS = ["kary:1", "kary:x", "kary:3/2", "yang:1", "polyalpha:-1", "polyalpha:1/0",
                "binary:2", "frob:2"]
BAD_EXPRESSIONS = ["", "(", "1+", "t^t", "2t", "sin(t)", "1/0", "é", "t^(1/2)", "1/t",
                   "log(t)", "exp(1)", "t^-1"]
BINDINGS = [["a=1/2", "b=2"], ["a=2", "b=-1/3"], ["a=-1", "b=3"]]
BAD_BINDINGS = [["a=0", "b=1"], ["a=1/0"], ["a"], ["a=x"], ["1=2"], ["a=1", "a=2"], [], ["t=1"]]
RHO_SPECS = ["1", "1/n", "n", "a+1/n", "1/(n*2^(n-1))", "1,1/2,1/3,1/4,1/5,1/6",
             "1,0,2,1,1,1,1", "2,-1,3,1/2,1,7"]
BAD_RHO_SPECS = ["2,-1", "x", "1,1/0", "", "1/(n-2)", "n^(1/2)", "t", "1,"]
BAD_TREES = ["", "(", ")(", "(()", "(x)", "()()"]
# each is an error for every command: an unknown flag, a non-integer, a
# bad choice, an ambiguous or unknown prefix, a stray positional, a value
# for a bare switch, a flag without its value
USAGE_ERRORS = [["--bogus"], ["--order=x"], ["--output=xml"], ["--o=3"], ["stray"],
                ["--allow-degenerate=yes"], ["--phi"]]


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda x: f"({x[0]}{x[1]}{x[2]})"
        ),
        st.tuples(children, st.sampled_from(["2", "3", "(-1)", "1/2", "0", "a"])).map(
            lambda x: f"({x[0]})^{x[1]}"
        ),
        # exp needs constant term 0, log constant term 1
        children.map(lambda c: f"exp(t*({c}))"),
        children.map(lambda c: f"log(1+t*({c}))"),
        children.map(lambda c: f"-{c}"),
    )


expressions = st.recursive(
    st.sampled_from(["t", "1", "2", "1/2", "0", "a", "b"]), _combine, max_leaves=6
)
bad_expressions = st.one_of(expressions, st.sampled_from(BAD_EXPRESSIONS))
# families that mostly evaluate and pass validation
good_phis = st.one_of(
    st.sampled_from(sorted(BUILTINS) + ["(1+a*t)^b"]),
    expressions.map(lambda e: f"1+t+t^2*({e})"),
)
bad_phis = st.one_of(st.sampled_from(BAD_BUILTINS), bad_expressions)
trees = st.recursive(
    st.just("()"), lambda kids: st.lists(kids, max_size=3).map(lambda ks: f"({''.join(ks)})"),
    max_leaves=7,
)


@st.composite
def argvs(draw):
    """One argv; every value is passed as ``--flag=value`` so that a value
    starting with ``-`` is not taken for a flag."""

    def maybe(good, bad):
        """Mostly a draw from ``good``; one time in six from ``bad``.
        (``integers(0, 5) == 0`` took ``bad`` about one draw in four:
        derandomized hypothesis favours 0.)"""
        return draw(bad if draw(st.sampled_from([False] * 5 + [True])) else good)

    command = draw(st.sampled_from(["series", "rho", "rho-forest", "verify", "labellings"]))
    argv = [command]
    if command == "labellings":
        argv.append("--tree=" + maybe(trees, st.sampled_from(BAD_TREES)))
    else:
        phi = maybe(good_phis, bad_phis)
        argv.append("--phi=" + phi)
        binding = maybe(st.sampled_from(BINDINGS), st.sampled_from(BAD_BINDINGS))
        if draw(st.booleans()):
            argv.append("--allow-degenerate")
    if command == "verify":
        argv.append("--rho=" + maybe(st.sampled_from(RHO_SPECS), st.sampled_from(BAD_RHO_SPECS)))
        argv.append(f"--max-n={maybe(st.integers(1, 6), st.sampled_from([-1, 0, 13]))}")
    elif command != "labellings":
        argv.append(f"--order={maybe(st.integers(1, 8), st.sampled_from([-1, 0, 301]))}")
    if command == "series":
        argv.append("--model=" + draw(st.sampled_from(["sg", "inc"])))
    elif command == "rho":
        F = maybe(expressions.map(lambda e: f"t*({e})"), bad_expressions)
        argv += maybe(st.sampled_from([["--from-model=sg"], ["--from-model=inc"], ["--F=" + F]]),
                      st.sampled_from([[], ["--from-model=sg", "--F=t"]]))
    elif command == "rho-forest":
        # G = phi + t*X has G(0) = phi_0 whenever X(0) exists
        G = expressions.map(lambda e: f"({BUILTINS.get(phi, phi)})+t*({e})")
        argv.append("--G=" + maybe(G, bad_expressions))
    if command != "labellings":
        if binding in BINDINGS:  # a good binding binds only the names read
            read = set().union(*(reads(a.partition("=")[2]) for a in argv
                                 if a.startswith(("--phi=", "--F=", "--G=", "--rho="))))
            binding = [p for p in binding if p.partition("=")[0] in read]
        argv += ["--param=" + p for p in binding]
    argv += draw(st.sampled_from([[], ["--output=plain"], ["--output=json"], ["--output=csv"]]))
    return argv + maybe(st.just([]), st.sampled_from(USAGE_ERRORS))


def reads(text):
    """The parameter names an argument text reads; a builtin spec and a
    comma table read none."""
    if text.partition(":")[0] in families.BUILTIN_NAMES or "," in text:
        return set()
    return set(re.findall(r"[A-Za-z_]\w*", text)) - {"t", "exp", "log"}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit:  # a usage error
            code = exit.code
    return code, out.getvalue(), err.getvalue()


def reports_mismatch(command, out):
    if command == "verify":
        return "equal=false" in out or '"equal": false' in out or ",false\n" in out
    if command == "labellings":
        return "agree false" in out or '"agree": false' in out or "agree,false" in out
    return False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
def test_exit_codes_messages_and_determinism(argv):
    code, out, err = run(argv)
    # exit 4 (internal error) is a bug: no argv, however bad, may reach it
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert reports_mismatch(argv[0], out), (argv, out)
    lines = err.splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), (argv, err)
    if code in (2, 3):
        assert len(errors) == 1 and out == "", (argv, out, err)
    else:
        assert errors == [], (argv, err)
    assert run(argv) == (code, out, err), argv
