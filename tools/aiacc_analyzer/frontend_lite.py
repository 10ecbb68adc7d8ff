"""The analyzer's structural frontend.

Lowers the repo's C++ to the analyzer IR with a brace/paren-driven scan:
no preprocessor, no templates instantiation, no overload resolution —
just the statement structure, calls, and declarations the checks need.
It needs nothing beyond the Python standard library, so the analyzer
runs wherever the tests do; the fixture goldens in tests/analyzer_test.py
pin what it reports.

Known, accepted approximations:
  * `Call.returns_status` comes from a repo-wide signature index (any
    function *name* declared anywhere with a Status/Result return). A
    name declared with both Status and non-Status returns is treated as
    ambiguous and dropped from the index (never flagged).
  * Statement texts are spellings; type names are spellings.
"""

from __future__ import annotations

import functools
import os
import re

from ir import (BLOCK, BREAK, CONTINUE, DECL, EXPR, IF, LOOP, RETURN, SWITCH,
                Call, FileIR, FunctionIR, ProjectIR, Stmt)
from lexer import (NOT_A_CALL, ident_ending_at, line_of, match_delim,
                   skip_ws_back, strip_comments_and_strings)

CPP_EXTS = (".h", ".hpp", ".cc", ".cpp")

# --------------------------------------------------------------------------
# Signature index: function name -> "status" | "result".
# --------------------------------------------------------------------------

SIG_RE = re.compile(
    r"(?:^|[;{}]|\bvirtual\b|\bstatic\b|\binline\b|\bconstexpr\b|"
    r"\[\[nodiscard\]\])\s*"
    r"(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+|friend\s+)*"
    r"(?P<ret>(?:::)?(?:\w+::)*(?:Status\b|Result\s*<[^;(){}=]*>))\s*[&]?\s+"
    r"(?:\w+(?:<[^;(){}]*>)?::)*"  # optional Class:: qualifier on definitions
    r"(?P<name>[A-Za-z_]\w*)\s*\(",
    re.M,
)

# Any other return type followed by the same name: used to spot ambiguity.
ANY_SIG_RE = re.compile(
    r"(?:^|[;{}])\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+|static\s+|inline\s+)*"
    r"(?P<ret>(?:const\s+)?(?:unsigned\s+)?[A-Za-z_][\w:]*(?:\s*<[^;(){}=]*>)?"
    r"[&*\s]+)"
    r"(?P<name>[A-Za-z_]\w*)\s*\(",
    re.M,
)

CONTROL_BEFORE_PAREN = frozenset(("if", "for", "while", "switch", "return"))


@functools.lru_cache(maxsize=None)
def _file_signatures(raw: str) -> tuple[tuple[tuple[str, str], ...],
                                        frozenset[str]]:
    """One file's declarations: every Status/Result one as (name, kind) in
    source order, and the names declared with any other return. Keyed by
    content, so a process that analyzes many file sets (the fixture
    self-tests) strips and scans each src/ file once."""
    code = strip_comments_and_strings(raw)
    status = tuple(
        (m.group("name"), "result" if "Result" in m.group("ret") else "status")
        for m in SIG_RE.finditer(code))
    others: set[str] = set()
    for m in ANY_SIG_RE.finditer(code):
        ret = m.group("ret").strip()
        name = m.group("name")
        if name in CONTROL_BEFORE_PAREN or not ret:
            continue
        if re.search(r"\bStatus\b|\bResult\b", ret):
            continue
        if ret in ("return", "else", "new", "delete", "case", "do",
                   "const", "co_return"):
            continue
        others.add(name)
    return status, frozenset(others)


def build_signature_index(texts: dict[str, str],
                          with_others: bool = False):
    """texts: repo-relative path -> raw file contents. Two passes: first
    every Status/Result declaration, then every other declaration — a
    name declared with both a Status-ish and a non-Status return anywhere
    in the project is ambiguous and dropped (never flagged). With
    `with_others`, also return the set of names seen with a non-Status
    return (so a caller can mask a broader index with local negatives)."""
    sigs = [_file_signatures(raw) for _, raw in sorted(texts.items())]
    status_names: dict[str, str] = {}
    other_names: set[str] = set()
    for status, _ in sigs:
        for name, kind in status:
            prev = status_names.get(name)
            if prev is not None and prev != kind:
                other_names.add(name)  # Status vs Result under one name
            status_names[name] = kind
    for _, others in sigs:
        other_names.update(n for n in others if n in status_names)
    if with_others:
        ambiguous = {n for n in other_names if n in status_names}
        for name in ambiguous:
            status_names.pop(name)
        return status_names, other_names - ambiguous
    for name in other_names:
        status_names.pop(name, None)
    return status_names


# --------------------------------------------------------------------------
# Function discovery.
# --------------------------------------------------------------------------

_CTRL_OR_EXPR = frozenset(("if", "for", "while", "switch", "return",
                           "catch", "do", "else", "constexpr"))
_EXPR_KEYWORDS = frozenset(("return", "new", "else", "case", "delete",
                            "throw", "do", "co_return", "goto"))
_QUAL_KEYWORDS = frozenset(("const", "noexcept", "override", "final",
                            "mutable", "try"))
_MACRO_NAME = re.compile(r"[A-Z][A-Z0-9_]*")
# What a declaration head (return type + specifiers) may contain.
_DECL_HEAD_OK = re.compile(r"^[\w\s:<>,&*\[\]~]*$")
_DECL_HEAD_BAD_WORDS = re.compile(
    r"\b(?:return|new|delete|else|case|throw|do|co_return|goto|sizeof)\b")


def _match_back(code: str, j: int, opener: str, closer: str) -> int:
    depth = 0
    while j >= 0:
        c = code[j]
        if c == closer:
            depth += 1
        elif c == opener:
            depth -= 1
            if depth == 0:
                return j
        j -= 1
    return -1


def _consume_trailing_return(code: str, j: int, limit: int = 100):
    """`j` sits on the last char of a trailing return type (`-> T<U>&`).
    Return the position just before the `->`, or None."""
    start = j
    while j >= 0 and start - j < limit:
        c = code[j]
        if c == ">" and j >= 1 and code[j - 1] == "-":
            return skip_ws_back(code, j - 2)
        if c == ">":
            k = _match_back(code, j, "<", ">")
            if k < 0:
                return None
            j = k - 1
            continue
        if c.isalnum() or c in "_:&* \t\n":
            j -= 1
            continue
        return None
    return None


def _function_head(code: str, brace: int):
    """For a '{' at `brace`: (name, open_paren) of the function definition
    whose body it opens, or None. Understands qualifier keywords,
    ALL_CAPS macro qualifiers (REQUIRES(mu), AIACC_*), trailing return
    types, and constructor member-initializer lists. Rejects control
    flow, lambdas (the statement parser owns those), initializer braces,
    and class/namespace bodies."""
    j = skip_ws_back(code, brace - 1)
    for _ in range(40):
        if j < 0:
            return None
        c = code[j]
        if c == "]":
            return None  # lambda literal
        if c in ")}":
            opener = "(" if c == ")" else "{"
            k = _match_back(code, j, opener, c)
            if k < 0:
                return None
            p = skip_ws_back(code, k - 1)
            name = ident_ending_at(code, p)
            if not name:
                return None
            if c == ")" and _MACRO_NAME.fullmatch(name):
                before = skip_ws_back(code, p - len(name))
                if before < 0 or code[before] in ";}{":
                    # The macro call IS the definition head — gtest-style
                    # TEST(Suite, Name) { ... } bodies are functions too.
                    return name, k
                # Qualifier macro (EXCLUDES(mu_), AIACC_NO_TSAN(..)).
                j = before
                continue
            q = skip_ws_back(code, p - len(name))
            sep = code[q] if q >= 0 else ""
            if sep in ",:" and not (sep == ":" and q >= 1
                                    and code[q - 1] == ":"):
                # `name(args)` / `name{args}` is a member initializer —
                # keep walking toward the real parameter list.
                j = skip_ws_back(code, q - 1)
                continue
            if c == "}":
                return None  # `Type x{init};` or a block — not a head
            if name in _CTRL_OR_EXPR:
                return None
            return name, k
        ident = ident_ending_at(code, j)
        if ident in _QUAL_KEYWORDS:
            j = skip_ws_back(code, j - len(ident))
            continue
        if ident in _EXPR_KEYWORDS:
            return None
        if ident or c in ">&*:":
            # Possibly a trailing return type `) -> T {`.
            r = _consume_trailing_return(code, j)
            if r is None:
                return None
            j = r
            continue
        return None
    return None


def _qualified_name(code: str, op: int, name: str) -> tuple[str, int]:
    """Expand `name` (param list opens at `op`) to `Ns::Cls::name`;
    returns (qual_name, index before the full qualified name)."""
    qual = name
    k = skip_ws_back(code, op - 1) - len(name)
    if k >= 0 and code[k] == "~":  # destructor
        qual = "~" + qual
        k -= 1
    while k >= 1 and code[k - 1 : k + 1] == "::":
        k -= 2
        if k >= 0 and code[k] == ">":  # Cls<T>::
            k = _match_back(code, k, "<", ">") - 1
            if k < -1:
                return qual, k
        part = ident_ending_at(code, k)
        if not part:
            break
        qual = part + "::" + qual
        k -= len(part)
    return qual, k


def _head_is_declaration(code: str, before_name: int) -> bool:
    """Validate the text between the previous statement/body boundary and
    the function name: it must look like specifiers + a return type, not
    an expression (which would make the paren a call, not a head)."""
    start = before_name
    while start >= 0 and code[start] not in ";{}":
        start -= 1
    seg = code[start + 1 : before_name + 1]
    seg = re.sub(r"\[\[[^\]]*\]\]", " ", seg)  # [[nodiscard]] etc.
    if _DECL_HEAD_BAD_WORDS.search(seg):
        return False
    return _DECL_HEAD_OK.match(seg) is not None


def _return_type_before(code: str, name_start: int) -> str:
    start = max(0, name_start - 120)
    seg = code[start:name_start]
    seg = re.sub(r"\[\[[^\]]*\]\]", " ", seg)
    for kw in ("virtual", "static", "inline", "constexpr", "explicit",
               "friend"):
        seg = re.sub(r"\b" + kw + r"\b", " ", seg)
    # Last line-ish fragment only.
    seg = re.split(r"[;{}]", seg)[-1]
    return " ".join(seg.split())[-80:]


def find_function_bodies(code: str):
    """Yield (name, qual, sig_open, body_open, body_close) for every
    function definition body in stripped text, outermost only (nested
    lambdas are parsed by the statement parser)."""
    i = 0
    n = len(code)
    while i < n:
        if code[i] != "{":
            i += 1
            continue
        head = _function_head(code, i)
        if head is None:
            # Not a function head (class/namespace/enum/init-list body) —
            # step inside and keep scanning (methods live inside class
            # braces). Lambdas are parsed by the statement parser.
            i += 1
            continue
        name, op = head
        qual, before = _qualified_name(code, op, name)
        if not _head_is_declaration(code, before):
            i += 1
            continue
        if _MACRO_NAME.fullmatch(name):
            # TEST(Suite, Name)-style head: fold the args into the symbol
            # so findings in different tests stay distinguishable.
            close_paren = match_delim(code, op)
            args = re.sub(r"\s+", " ", code[op + 1:close_paren]).strip()
            qual = f"{name}({args})"
        close = match_delim(code, i)
        yield name, qual, op, i, close
        i = close + 1


# --------------------------------------------------------------------------
# Statement parsing.
# --------------------------------------------------------------------------

_WORD = re.compile(r"[A-Za-z_]\w*")

DECL_RE = re.compile(
    r"^\s*(?:const\s+|constexpr\s+|static\s+|mutable\s+)*"
    r"(?P<type>(?:typename\s+)?[A-Za-z_][\w:]*(?:\s*<[^;=]*?>)?"
    r"(?:\s*[&*]+|\s+))\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?P<init>=[^;]*|\([^;]*\)|\{[^;]*\})?\s*;?\s*$",
    re.S,
)

_DECL_TYPE_NOT = frozenset((
    "return", "delete", "case", "goto", "new", "throw", "else", "do",
    "break", "continue", "using", "typedef", "public", "private",
    "protected", "template", "operator", "sizeof", "co_return",
))


class _Parser:
    def __init__(self, code: str, rel: str):
        self.code = code  # stripped whole-file text
        self.rel = rel

    def parse_function(self, name: str, qual: str, body_open: int,
                       body_close: int, return_type: str,
                       is_lambda: bool = False,
                       bound_to: str = "") -> FunctionIR:
        block = self.parse_block(body_open + 1, body_close)
        block.line = line_of(self.code, body_open)
        return FunctionIR(
            name=name, qual_name=qual, file=self.rel,
            line=line_of(self.code, body_open), body=block,
            return_type=return_type, is_lambda=is_lambda, bound_to=bound_to)

    # -- block/statement scanning ------------------------------------------

    def parse_block(self, start: int, end: int) -> Stmt:
        code = self.code
        stmts: list[Stmt] = []
        i = start
        while i < end:
            c = code[i]
            if c.isspace() or c == ";":
                i += 1
                continue
            if c == "}":
                break
            word_m = _WORD.match(code, i)
            word = word_m.group(0) if word_m else ""
            if word in ("case", "default"):
                # Label colon = first ':' that is not part of a '::'.
                j = i
                colon = -1
                while True:
                    colon = code.find(":", j, end)
                    if colon != -1 and code[colon + 1 : colon + 2] == ":":
                        j = colon + 2
                        continue
                    break
                i = (colon + 1) if colon != -1 else end
                continue
            if word in ("public", "private", "protected"):
                i = code.find(":", i, end) + 1
                continue
            if word == "if":
                st, i = self.parse_if(i, end)
                stmts.append(st)
            elif word in ("for", "while"):
                st, i = self.parse_loop(i, end, word)
                stmts.append(st)
            elif word == "do":
                st, i = self.parse_do(i, end)
                stmts.append(st)
            elif word == "switch":
                st, i = self.parse_switch(i, end)
                stmts.append(st)
            elif word in ("break", "continue"):
                semi = code.find(";", i, end)
                stmts.append(Stmt(kind=BREAK if word == "break" else CONTINUE,
                                  line=line_of(code, i)))
                i = (semi + 1) if semi != -1 else end
            elif c == "{":
                close = match_delim(code, i)
                blk = self.parse_block(i + 1, min(close, end))
                blk.line = line_of(code, i)
                stmts.append(blk)
                i = close + 1
            else:
                st, i = self.parse_simple(i, end)
                if st is not None:
                    stmts.append(st)
        return Stmt(kind=BLOCK, line=line_of(code, start), children=stmts)

    def _paren_after(self, i: int, end: int) -> tuple[str, int, int]:
        """Controlling '(...)' after a keyword at i: (text, open, after)."""
        op = self.code.find("(", i, end)
        if op == -1:
            return "", i, end
        close = match_delim(self.code, op)
        return self.code[op + 1 : close], op, close + 1

    def parse_substmt(self, i: int, end: int) -> tuple[Stmt, int]:
        """A single statement or braced block (if/else/loop body)."""
        code = self.code
        while i < end and code[i].isspace():
            i += 1
        if i < end and code[i] == "{":
            close = match_delim(code, i)
            blk = self.parse_block(i + 1, min(close, end))
            blk.line = line_of(code, i)
            return blk, close + 1
        # Single statement: bound it FIRST, then parse just that span
        # (parsing the rest of the function and discarding it would be
        # exponential on if-return ladders).
        nxt = self._stmt_end(i, end)
        blk = self.parse_block(i, nxt)
        blk.line = line_of(code, i)
        return blk, nxt

    def _stmt_end(self, i: int, end: int) -> int:
        """Position just after the first full statement starting at i.
        Pure position scan — builds no Stmt objects."""
        code = self.code
        while i < end and code[i].isspace():
            i += 1
        if i >= end:
            return end
        if code[i] == "{":
            return min(match_delim(code, i) + 1, end)
        word_m = _WORD.match(code, i)
        word = word_m.group(0) if word_m else ""
        if word == "if":
            _, _, after = self._paren_after(i, end)
            after = self._stmt_end(after, end)
            j = after
            while j < end and code[j].isspace():
                j += 1
            if code[j : j + 4] == "else" and not (
                    code[j + 4 : j + 5].isalnum() or code[j + 4 : j + 5] == "_"):
                after = self._stmt_end(j + 4, end)
            return after
        if word in ("for", "while", "switch"):
            _, _, after = self._paren_after(i, end)
            return self._stmt_end(after, end)
        if word == "do":
            after = self._stmt_end(i + 2, end)
            j = code.find("while", after, end)
            if j != -1:
                _, _, after2 = self._paren_after(j, end)
                semi = code.find(";", after2, end)
                return (semi + 1) if semi != -1 else after2
            return after
        # Simple statement: to the ';' at delimiter depth 0.
        j = i
        while j < end:
            c = code[j]
            if c in "([{":
                j = match_delim(code, j)
            elif c == ";":
                return j + 1
            elif c == "}":
                return j
            j += 1
        return end

    def parse_if(self, i: int, end: int) -> tuple[Stmt, int]:
        code = self.code
        cond, _, after = self._paren_after(i, end)
        then_blk, after = self.parse_substmt(after, end)
        st = Stmt(kind=IF, line=line_of(code, i), cond=cond,
                  children=[then_blk])
        st.calls, st.lambdas = self._calls_in(cond, i)
        j = after
        while j < end and code[j].isspace():
            j += 1
        if code[j : j + 4] == "else" and not (code[j + 4 : j + 5].isalnum()
                                              or code[j + 4 : j + 5] == "_"):
            else_blk, after = self.parse_substmt(j + 4, end)
            st.children.append(else_blk)
        return st, after

    def parse_loop(self, i: int, end: int, kw: str) -> tuple[Stmt, int]:
        code = self.code
        cond, _, after = self._paren_after(i, end)
        body, after = self.parse_substmt(after, end)
        st = Stmt(kind=LOOP, line=line_of(code, i), cond=cond,
                  children=[body])
        st.calls, st.lambdas = self._calls_in(cond, i)
        return st, after

    def parse_do(self, i: int, end: int) -> tuple[Stmt, int]:
        code = self.code
        body, after = self.parse_substmt(i + 2, end)
        st = Stmt(kind=LOOP, line=line_of(code, i), children=[body])
        # Trailing `while (...)`;
        j = code.find("while", after, end)
        if j != -1:
            cond, _, after2 = self._paren_after(j, end)
            st.cond = cond
            st.calls, st.lambdas = self._calls_in(cond, j)
            semi = code.find(";", after2, end)
            after = (semi + 1) if semi != -1 else after2
        return st, after

    def parse_switch(self, i: int, end: int) -> tuple[Stmt, int]:
        code = self.code
        cond, _, after = self._paren_after(i, end)
        body, after = self.parse_substmt(after, end)
        st = Stmt(kind=SWITCH, line=line_of(code, i), cond=cond,
                  children=[body])
        st.calls, st.lambdas = self._calls_in(cond, i)
        return st, after

    def parse_simple(self, i: int, end: int) -> tuple[Stmt | None, int]:
        code = self.code
        after = self._stmt_end(i, end)
        # Statement text minus the trailing ';'.
        text = code[i:after].rstrip()
        if text.endswith(";"):
            text = text[:-1]
        if not text.strip():
            return None, after
        line = line_of(code, i)
        calls, lambdas = self._calls_in(text, i)
        blanked = self._blank_lambdas(text)
        kind = EXPR
        st = Stmt(kind=kind, line=line, text=blanked, calls=calls,
                  lambdas=lambdas)
        word_m = _WORD.match(blanked.lstrip())
        word = word_m.group(0) if word_m else ""
        if word == "return":
            st.kind = RETURN
            return st, after
        m = DECL_RE.match(blanked)
        if m is not None and m.group("type") is not None:
            tname = m.group("type").strip().rstrip("&*").strip()
            head = tname.split("<")[0].split("::")[-1].strip()
            if (head not in _DECL_TYPE_NOT and _WORD.fullmatch(head)
                    and "=" not in tname and "(" not in m.group("type")):
                init = (m.group("init") or "").lstrip("=").strip()
                # `foo = bar` parses as type=foo name=bar with no init —
                # reject: a decl with neither init nor a multi-token type
                # whose name is immediately preceded by '=' is assignment.
                st.kind = DECL
                st.decl_type = m.group("type").strip()
                st.decl_name = m.group("name")
                st.init = self._blank_lambdas(init)
                if not m.group("init") and "=" in blanked:
                    st.kind = EXPR
                    st.decl_type = st.decl_name = st.init = ""
        return st, after

    # -- calls & lambdas ----------------------------------------------------

    def _lambda_spans(self, text: str) -> list[tuple[int, int, int]]:
        """(bracket_open, body_open, body_close) of lambda literals in
        `text` (relative offsets), outermost only."""
        spans = []
        i = 0
        n = len(text)
        while i < n:
            if text[i] != "[":
                i += 1
                continue
            # Previous non-space char decides lambda vs indexing.
            p = skip_ws_back(text, i - 1)
            prev = text[p] if p >= 0 else ""
            if prev.isalnum() or prev in ("_", ")", "]"):
                i += 1
                continue
            cb = match_delim(text, i)
            if cb >= n:
                i += 1
                continue
            j = cb + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == "(":
                j = match_delim(text, j) + 1
                # Skip qualifiers / trailing return.
                while j < n:
                    while j < n and text[j].isspace():
                        j += 1
                    m = re.match(r"(?:mutable|noexcept|->\s*[\w:<>,&*\s]+?)\s*(?=\{)",
                                 text[j:])
                    if m and m.end() > 0:
                        j += m.end()
                        break
                    break
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j] == "{":
                close = match_delim(text, j)
                spans.append((i, j, close))
                i = close + 1
            else:
                i += 1
        return spans

    def _blank_lambdas(self, text: str) -> str:
        out = list(text)
        for _, bo, bc in self._lambda_spans(text):
            for k in range(bo + 1, min(bc, len(out))):
                if out[k] != "\n":
                    out[k] = " "
        return "".join(out)

    def _calls_in(self, text: str, abs_pos: int) -> tuple[list[Call],
                                                          list[FunctionIR]]:
        """Calls in `text` (lambda bodies excluded) and the lambda bodies
        parsed as FunctionIRs. abs_pos = offset of text[0] in self.code."""
        lambdas: list[FunctionIR] = []
        for br, bo, bc in self._lambda_spans(text):
            bound = ""
            eq = text.rfind("=", 0, br)
            if eq > 0:
                bound = ident_ending_at(text, skip_ws_back(text, eq - 1))
            lam = self.parse_function(
                "<lambda>", "<lambda>", abs_pos + bo, abs_pos + bc, "",
                is_lambda=True, bound_to=bound)
            lambdas.append(lam)
        blanked = self._blank_lambdas(text)
        calls: list[Call] = []
        for m in _WORD.finditer(blanked):
            name = m.group(0)
            j = m.end()
            while j < len(blanked) and blanked[j].isspace():
                j += 1
            # Template argument list directly after the name.
            if j < len(blanked) and blanked[j] == "<":
                tc = self._match_angle(blanked, j)
                if tc != -1:
                    j = tc + 1
                    while j < len(blanked) and blanked[j].isspace():
                        j += 1
            if j >= len(blanked) or blanked[j] != "(":
                continue
            if name in NOT_A_CALL:
                continue
            close = match_delim(blanked, j)
            args = self._split_args(blanked[j + 1 : close])
            # Receiver: walk back over `recv.` / `recv->` / `Ns::`.
            p = m.start() - 1
            recv = ""
            if p >= 0 and blanked[max(0, p - 1) : p + 1] in ("::",):
                pass
            if p >= 1 and blanked[p - 1 : p + 1] == "::":
                q = skip_ws_back(blanked, p - 2)
                recv = ident_ending_at(blanked, q)
            elif p >= 0 and blanked[p] == ".":
                q = skip_ws_back(blanked, p - 1)
                recv = self._recv_chain(blanked, q)
            elif p >= 1 and blanked[p - 1 : p + 1] == "->":
                q = skip_ws_back(blanked, p - 2)
                recv = self._recv_chain(blanked, q)
            calls.append(Call(name=name, recv=recv, args=args,
                              line=line_of(self.code,
                                           abs_pos + m.start())))
        return calls, lambdas

    @staticmethod
    def _match_angle(text: str, i: int) -> int:
        """Match a template argument list starting at '<'; -1 when it is
        really a comparison (heuristic: hit ';', '&&', '||' first)."""
        depth = 0
        for j in range(i, min(len(text), i + 200)):
            c = text[j]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    return j
            elif c in ";{}":
                return -1
            elif c == "&" and j + 1 < len(text) and text[j + 1] == "&":
                return -1
        return -1

    @staticmethod
    def _recv_chain(text: str, i: int) -> str:
        """Receiver text ending at i: `obj`, `a.b`, `arr[0]`, `f(x)`."""
        j = i
        while j >= 0:
            c = text[j]
            if c.isalnum() or c == "_":
                j -= 1
            elif c in ")]":
                depth = 0
                while j >= 0:
                    if text[j] in ")]":
                        depth += 1
                    elif text[j] in "([":
                        depth -= 1
                        if depth == 0:
                            j -= 1
                            break
                    j -= 1
            elif c == "." or c == ":":
                j -= 1
            elif c == ">" and j >= 1 and text[j - 1] == "-":
                j -= 2
            elif c == "*" or c == "&":
                j -= 1
                break
            else:
                break
        return text[j + 1 : i + 1].strip().lstrip("*&")

    @staticmethod
    def _split_args(argtext: str) -> list[str]:
        args = []
        depth = 0
        cur = []
        for c in argtext:
            if c in "([{<":
                depth += 1
            elif c in ")]}>":
                depth = max(0, depth - 1)
            if c == "," and depth == 0:
                args.append("".join(cur).strip())
                cur = []
            else:
                cur.append(c)
        tail = "".join(cur).strip()
        if tail:
            args.append(tail)
        return args


# --------------------------------------------------------------------------
# Project loading.
# --------------------------------------------------------------------------

def load_project(repo: str, files: list[str]) -> ProjectIR:
    """files: repo-relative paths to analyze. The signature index is
    built from the full src/ tree regardless, so cross-file return types
    resolve even for partial runs."""
    texts: dict[str, str] = {}
    src_root = os.path.join(repo, "src")
    for dirpath, _, names in os.walk(src_root):
        for name in sorted(names):
            if name.endswith(CPP_EXTS):
                p = os.path.join(dirpath, name)
                rel = os.path.relpath(p, repo)
                with open(p, encoding="utf-8", errors="replace") as f:
                    texts[rel] = f.read()
    # Files outside src/ (fixtures, tests, benches) resolve return types
    # against a TU-like local view first — the file itself plus the
    # headers sitting next to it — so a self-contained fixture stub wins
    # over a same-named symbol elsewhere in the repo.
    outside_src: set[str] = set()
    for rel in files:
        if rel not in texts:
            with open(os.path.join(repo, rel), encoding="utf-8",
                      errors="replace") as f:
                texts[rel] = f.read()
            outside_src.add(rel)

    dir_header_cache: dict[str, dict[str, str]] = {}

    def _dir_headers(rel: str) -> dict[str, str]:
        d = os.path.dirname(os.path.join(repo, rel))
        if d not in dir_header_cache:
            hdrs: dict[str, str] = {}
            for name in sorted(os.listdir(d)):
                if name.endswith((".h", ".hpp")):
                    p = os.path.join(d, name)
                    with open(p, encoding="utf-8", errors="replace") as f:
                        hdrs[os.path.relpath(p, repo)] = f.read()
            dir_header_cache[d] = hdrs
        return dir_header_cache[d]

    project = ProjectIR()
    project.signature_index = build_signature_index(texts)
    for rel in files:
        raw = texts[rel]
        code = strip_comments_and_strings(raw)
        parser = _Parser(code, rel)
        fir = FileIR(path=rel)
        for name, qual, op, bo, bc in find_function_bodies(code):
            name_start = skip_ws_back(code, op - 1) - len(name) + 1
            ret = _return_type_before(code, name_start)
            fn = parser.parse_function(name, qual, bo, bc, ret)
            fir.functions.append(fn)
        project.files.append(fir)

    # Resolve returns_status: local TU-like view first (out-of-src files
    # only), then the repo-wide index.
    for fir in project.files:
        local_status: dict[str, str] = {}
        local_others: set[str] = set()
        if fir.path in outside_src:
            local = dict(_dir_headers(fir.path))
            local[fir.path] = texts[fir.path]
            local_status, local_others = build_signature_index(
                local, with_others=True)

        def resolve(name: str) -> bool:
            if name in local_status:
                return True
            if name in local_others:
                return False
            return project.signature_index.get(name) is not None

        for fn in fir.functions:
            for f in (fn, *fn.all_lambdas()):
                for st in f.all_stmts():
                    for call in st.calls:
                        if call.returns_status is None:
                            call.returns_status = resolve(call.name)
    return project
