"""A two-pass RV32IM assembler.

Supports the full instruction set the CPU model executes, the usual
pseudo-instructions (``li``, ``la``, ``mv``, ``j``, ``call``, ``ret``,
``beqz`` …), labels, and the directives firmware needs (``.org``,
``.word``, ``.byte``, ``.half``, ``.ascii``/``.asciz``, ``.space``,
``.align``, ``.equ``).  Operands accept decimal/hex numbers, symbols,
``sym+const`` expressions, and ``%hi()``/``%lo()`` relocation operators.

This is the "toolchain" of the reproduction: RPU firmware is written in
assembly source strings and assembled to images the ISS executes, in
place of riscv-gcc in the artifact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .isa import (
    OP_BRANCH,
    OP_IMM,
    OP_JAL,
    OP_JALR,
    OP_LOAD,
    OP_LUI,
    OP_AUIPC,
    OP_REG,
    OP_STORE,
    OP_SYSTEM,
    DecodeError,
    encode_b,
    encode_i,
    encode_j,
    encode_r,
    encode_s,
    encode_u,
    parse_register,
)


class AssemblerError(ValueError):
    """Raised with source line context on any assembly problem."""

    def __init__(self, message: str, lineno: Optional[int] = None) -> None:
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass
class Program:
    """The assembled output: a flat image plus the symbol table."""

    image: bytes
    symbols: Dict[str, int]
    base: int = 0

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError as exc:
            raise AssemblerError(f"unknown symbol {name!r}") from exc


_MEM_OPERAND = re.compile(r"^(.*)\(\s*([a-zA-Z0-9]+)\s*\)$")
_HI_LO = re.compile(r"^%(hi|lo)\((.+)\)$")

# funct3 tables for plain encodings
_BRANCHES = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}
_LOADS = {"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}
_STORES = {"sb": 0, "sh": 1, "sw": 2}
_OP_IMMS = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
_OPS = {
    "add": (0, 0), "sub": (0, 0x20), "sll": (1, 0), "slt": (2, 0), "sltu": (3, 0),
    "xor": (4, 0), "srl": (5, 0), "sra": (5, 0x20), "or": (6, 0), "and": (7, 0),
    "mul": (0, 1), "mulh": (1, 1), "mulhsu": (2, 1), "mulhu": (3, 1),
    "div": (4, 1), "divu": (5, 1), "rem": (6, 1), "remu": (7, 1),
}
_SHIFT_IMMS = {"slli": (1, 0), "srli": (5, 0), "srai": (5, 0x20)}
_CSR_OPS = {"csrrw": 1, "csrrs": 2, "csrrc": 3, "csrrwi": 5, "csrrsi": 6, "csrrci": 7}

_CSR_NAMES = {
    "mstatus": 0x300, "mie": 0x304, "mtvec": 0x305, "mscratch": 0x340,
    "mepc": 0x341, "mcause": 0x342, "mtval": 0x343, "mip": 0x344,
    "mcycle": 0xB00, "minstret": 0xB02, "mhartid": 0xF14,
}


@dataclass
class _Line:
    lineno: int
    label: Optional[str]
    mnemonic: Optional[str]
    operands: List[str]
    addr: int = 0
    size: int = 0


class Assembler:
    """Two-pass assembler producing a flat little-endian image."""

    def __init__(self, base: int = 0) -> None:
        self.base = base

    def assemble(self, source: str) -> Program:
        lines = self._tokenize(source)
        symbols: Dict[str, int] = {}
        lines = self._layout(lines, symbols)
        image = self._emit(lines, symbols)
        return Program(image=image, symbols=symbols, base=self.base)

    # -- pass 0: tokenize ----------------------------------------------------

    def _tokenize(self, source: str) -> List[_Line]:
        out: List[_Line] = []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            # peel off any labels (allow several on one line)
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$", text)
                if not match:
                    break
                out.append(_Line(lineno, match.group(1), None, []))
                text = match.group(2).strip()
            if not text:
                continue
            parts = text.split(None, 1)
            mnemonic = parts[0].lower()
            operands = (
                [op.strip() for op in _split_operands(parts[1])] if len(parts) > 1 else []
            )
            out.append(_Line(lineno, None, mnemonic, operands))
        return out

    # -- pass 1: layout / symbols ---------------------------------------------

    def _layout(self, lines: List[_Line], symbols: Dict[str, int]) -> List[_Line]:
        pc = self.base
        for line in lines:
            line.addr = pc
            if line.label is not None:
                if line.label in symbols:
                    raise AssemblerError(f"duplicate label {line.label!r}", line.lineno)
                symbols[line.label] = pc
                continue
            assert line.mnemonic is not None
            line.size = self._sizeof(line, symbols)
            pc += line.size
        return lines

    def _sizeof(self, line: _Line, symbols: Dict[str, int]) -> int:
        m = line.mnemonic
        assert m is not None
        if m == ".equ":
            if len(line.operands) != 2:
                raise AssemblerError(".equ needs name, value", line.lineno)
            symbols[line.operands[0]] = self._const(line.operands[1], symbols, line.lineno)
            return 0
        if m == ".org":
            target = self._const(line.operands[0], symbols, line.lineno)
            if target < line.addr:
                raise AssemblerError(".org cannot move backwards", line.lineno)
            return target - line.addr
        if m == ".align":
            align = 1 << self._const(line.operands[0], symbols, line.lineno)
            return (-line.addr) % align
        if m == ".space":
            return self._const(line.operands[0], symbols, line.lineno)
        if m == ".word":
            return 4 * len(line.operands)
        if m == ".half":
            return 2 * len(line.operands)
        if m == ".byte":
            return len(line.operands)
        if m in (".ascii", ".asciz"):
            text = _parse_string(line.operands[0], line.lineno)
            return len(text) + (1 if m == ".asciz" else 0)
        if m in (".text", ".data", ".globl", ".global", ".section"):
            return 0
        # instructions: everything is 4 bytes except li/la/call (up to 8)
        if m in ("li", "la", "call", "tail"):
            return 8
        return 4

    # -- pass 2: emit ---------------------------------------------------------

    def _emit(self, lines: List[_Line], symbols: Dict[str, int]) -> bytes:
        image = bytearray()

        def pad_to(addr: int) -> None:
            want = addr - self.base
            if want > len(image):
                image.extend(b"\x00" * (want - len(image)))

        for line in lines:
            if line.label is not None:
                continue
            m = line.mnemonic
            assert m is not None
            pad_to(line.addr)
            if m.startswith("."):
                image.extend(self._emit_directive(line, symbols))
            else:
                for word in self._emit_instruction(line, symbols):
                    image.extend(word.to_bytes(4, "little"))
        return bytes(image)

    def _emit_directive(self, line: _Line, symbols: Dict[str, int]) -> bytes:
        m = line.mnemonic
        assert m is not None
        if m in (".equ", ".text", ".data", ".globl", ".global", ".section"):
            return b""
        if m in (".org", ".align", ".space"):
            return b"\x00" * line.size
        if m == ".word":
            return b"".join(
                (self._const(op, symbols, line.lineno) & 0xFFFFFFFF).to_bytes(4, "little")
                for op in line.operands
            )
        if m == ".half":
            return b"".join(
                (self._const(op, symbols, line.lineno) & 0xFFFF).to_bytes(2, "little")
                for op in line.operands
            )
        if m == ".byte":
            return bytes(
                self._const(op, symbols, line.lineno) & 0xFF for op in line.operands
            )
        if m in (".ascii", ".asciz"):
            text = _parse_string(line.operands[0], line.lineno)
            return text + (b"\x00" if m == ".asciz" else b"")
        raise AssemblerError(f"unknown directive {m}", line.lineno)

    def _emit_instruction(self, line: _Line, symbols: Dict[str, int]) -> List[int]:
        m = line.mnemonic
        ops = line.operands
        lineno = line.lineno
        assert m is not None

        def reg(i: int) -> int:
            try:
                return parse_register(ops[i])
            except (IndexError, DecodeError) as exc:
                raise AssemblerError(str(exc), lineno) from exc

        def const(i: int) -> int:
            return self._const(ops[i], symbols, lineno)

        def rel(i: int) -> int:
            return self._const(ops[i], symbols, lineno) - line.addr

        def need(n: int) -> None:
            if len(ops) != n:
                raise AssemblerError(f"{m} expects {n} operands, got {len(ops)}", lineno)

        try:
            # --- plain encodings ---
            if m in _OPS:
                need(3)
                f3, f7 = _OPS[m]
                return [encode_r(f7, reg(2), reg(1), f3, reg(0), OP_REG)]
            if m in _OP_IMMS:
                need(3)
                return [encode_i(const(2), reg(1), _OP_IMMS[m], reg(0), OP_IMM)]
            if m in _SHIFT_IMMS:
                need(3)
                f3, f7 = _SHIFT_IMMS[m]
                shamt = const(2)
                if not 0 <= shamt <= 31:
                    raise AssemblerError(f"shift amount {shamt} out of range", lineno)
                return [encode_r(f7, shamt, reg(1), f3, reg(0), OP_IMM)]
            if m in _BRANCHES:
                need(3)
                return [encode_b(rel(2), reg(1), reg(0), _BRANCHES[m], OP_BRANCH)]
            if m in _LOADS:
                need(2)
                base_reg, offset = self._mem_operand(ops[1], symbols, lineno)
                return [encode_i(offset, base_reg, _LOADS[m], reg(0), OP_LOAD)]
            if m in _STORES:
                need(2)
                base_reg, offset = self._mem_operand(ops[1], symbols, lineno)
                return [encode_s(offset, reg(0), base_reg, _STORES[m], OP_STORE)]
            if m in ("lui", "auipc"):
                need(2)
                upper = const(1)
                if not -0x80000 <= upper <= 0xFFFFF:  # 20 bits, signed or unsigned
                    raise AssemblerError(f"U-immediate {upper} out of range", lineno)
                return [encode_u(upper << 12, reg(0), OP_LUI if m == "lui" else OP_AUIPC)]
            if m == "jal":
                if len(ops) == 1:  # jal offset  (rd=ra)
                    return [encode_j(rel(0), 1, OP_JAL)]
                need(2)
                return [encode_j(rel(1), reg(0), OP_JAL)]
            if m == "jalr":
                if len(ops) == 1:  # jalr rs -> jalr ra, rs, 0
                    return [encode_i(0, reg(0), 0, 1, OP_JALR)]
                need(2)
                base_reg, offset = self._mem_operand(ops[1], symbols, lineno)
                return [encode_i(offset, base_reg, 0, reg(0), OP_JALR)]
            if m in _CSR_OPS:
                need(3)
                csr = self._csr(ops[1], symbols, lineno)
                if m.endswith("i"):
                    zimm = const(2)
                    if not 0 <= zimm <= 31:
                        raise AssemblerError("csr immediate out of range", lineno)
                    return [encode_i(0, zimm, _CSR_OPS[m], reg(0), OP_SYSTEM) | (csr << 20)]
                return [encode_i(0, reg(2), _CSR_OPS[m], reg(0), OP_SYSTEM) | (csr << 20)]
            if m == "ecall":
                return [0x00000073]
            if m == "ebreak":
                return [0x00100073]
            if m == "mret":
                return [0x30200073]
            if m == "wfi":
                return [0x10500073]
            if m == "fence":
                return [0x0000000F]

            # --- pseudo-instructions ---
            if m == "nop":
                return [encode_i(0, 0, 0, 0, OP_IMM)]
            if m == "mv":
                need(2)
                return [encode_i(0, reg(1), 0, reg(0), OP_IMM)]
            if m == "not":
                need(2)
                return [encode_i(-1, reg(1), 4, reg(0), OP_IMM)]
            if m == "neg":
                need(2)
                return [encode_r(0x20, reg(1), 0, 0, reg(0), OP_REG)]
            if m == "seqz":
                need(2)
                return [encode_i(1, reg(1), 3, reg(0), OP_IMM)]
            if m == "snez":
                need(2)
                return [encode_r(0, reg(1), 0, 3, reg(0), OP_REG)]
            if m == "j":
                need(1)
                return [encode_j(rel(0), 0, OP_JAL)]
            if m == "jr":
                need(1)
                return [encode_i(0, reg(0), 0, 0, OP_JALR)]
            if m == "ret":
                return [encode_i(0, 1, 0, 0, OP_JALR)]
            if m in ("beqz", "bnez", "bltz", "bgez", "blez", "bgtz"):
                need(2)
                offset = rel(1)
                r = reg(0)
                if m == "beqz":
                    return [encode_b(offset, 0, r, 0, OP_BRANCH)]
                if m == "bnez":
                    return [encode_b(offset, 0, r, 1, OP_BRANCH)]
                if m == "bltz":
                    return [encode_b(offset, 0, r, 4, OP_BRANCH)]
                if m == "bgez":
                    return [encode_b(offset, 0, r, 5, OP_BRANCH)]
                if m == "blez":  # r <= 0  <=>  0 >= r  <=> bge zero, r
                    return [encode_b(offset, r, 0, 5, OP_BRANCH)]
                return [encode_b(offset, r, 0, 4, OP_BRANCH)]  # bgtz: blt zero, r
            if m in ("bgt", "ble", "bgtu", "bleu"):
                need(3)
                offset = rel(2)
                f3 = {"bgt": 4, "ble": 5, "bgtu": 6, "bleu": 7}[m]
                # swap operands: bgt a,b -> blt b,a
                return [encode_b(offset, reg(0), reg(1), f3, OP_BRANCH)]
            if m == "csrr":
                need(2)
                csr = self._csr(ops[1], symbols, lineno)
                return [encode_i(0, 0, 2, reg(0), OP_SYSTEM) | (csr << 20)]
            if m == "csrw":
                need(2)
                csr = self._csr(ops[0], symbols, lineno)
                return [encode_i(0, reg(1), 1, 0, OP_SYSTEM) | (csr << 20)]
            if m in ("li", "la"):
                need(2)
                value = const(1)
                if not -(1 << 31) <= value <= 0xFFFFFFFF:  # 32 bits, signed or unsigned
                    raise AssemblerError(f"{m} value {value} does not fit in 32 bits", lineno)
                return _expand_li(reg(0), value & 0xFFFFFFFF)
            if m in ("call", "tail"):
                need(1)
                target = self._const(ops[0], symbols, lineno)
                offset = target - line.addr
                rd = 1 if m == "call" else 0
                upper = (offset + 0x800) & 0xFFFFF000
                lower = offset - upper
                return [
                    encode_u(upper, rd, OP_AUIPC),
                    encode_i(lower, rd, 0, rd, OP_JALR),
                ]
        except DecodeError as exc:
            raise AssemblerError(str(exc), lineno) from exc

        raise AssemblerError(f"unknown mnemonic {m!r}", lineno)

    # -- operand helpers --------------------------------------------------------

    def _mem_operand(
        self, text: str, symbols: Dict[str, int], lineno: int
    ) -> Tuple[int, int]:
        match = _MEM_OPERAND.match(text.strip())
        if not match:
            raise AssemblerError(f"expected offset(reg), got {text!r}", lineno)
        offset_text = match.group(1).strip() or "0"
        try:
            base_reg = parse_register(match.group(2))
        except DecodeError as exc:
            raise AssemblerError(str(exc), lineno) from exc
        return base_reg, self._const(offset_text, symbols, lineno)

    def _csr(self, text: str, symbols: Dict[str, int], lineno: int) -> int:
        name = text.strip().lower()
        if name in _CSR_NAMES:
            return _CSR_NAMES[name]
        value = self._const(text, symbols, lineno)
        if not 0 <= value <= 0xFFF:
            raise AssemblerError(f"CSR address {value} out of range", lineno)
        return value

    def _const(self, text: str, symbols: Dict[str, int], lineno: int) -> int:
        text = text.strip()
        match = _HI_LO.match(text)
        if match:
            value = self._const(match.group(2), symbols, lineno) & 0xFFFFFFFF
            if match.group(1) == "hi":
                return ((value + 0x800) >> 12) & 0xFFFFF
            lo = value & 0xFFF
            return lo - 0x1000 if lo >= 0x800 else lo
        try:
            return _eval_expr(text, symbols)
        except KeyError as exc:
            raise AssemblerError(f"unknown symbol {exc.args[0]!r}", lineno) from exc
        except (ValueError, SyntaxError) as exc:
            raise AssemblerError(f"bad expression {text!r}: {exc}", lineno) from exc


def _expand_li(rd: int, value: int) -> List[int]:
    """li as lui+addi (always two words so sizing is stable)."""
    upper = (value + 0x800) & 0xFFFFF000
    lower = value - upper
    if lower < -2048:
        lower += 1 << 32
    lower = ((lower + 0x800) & 0xFFF) - 0x800
    return [
        encode_u(upper, rd, OP_LUI),
        encode_i(lower, rd, 0, rd, OP_IMM),
    ]


_TOKEN = re.compile(r"\s*(0x[0-9a-fA-F]+|\d+|[A-Za-z_.$][\w.$]*|[-+()~*<>&|^]|<<|>>)")


def _eval_expr(text: str, symbols: Dict[str, int]) -> int:
    """Evaluate a small constant expression: ints, symbols, + - * () ~ << >> & | ^."""
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"bad token at {text[pos:]!r}")
        tok = match.group(1)
        pos = match.end()
        tokens.append(tok)
    # merge shift operators split into single chars
    merged: List[str] = []
    i = 0
    while i < len(tokens):
        if tokens[i] in "<>" and i + 1 < len(tokens) and tokens[i + 1] == tokens[i]:
            merged.append(tokens[i] * 2)
            i += 2
        else:
            merged.append(tokens[i])
            i += 1
    tokens = merged

    def resolve(tok: str) -> int:
        if tok.startswith("0x") or tok.startswith("0X"):
            return int(tok, 16)
        if tok.isdigit():
            return int(tok)
        return symbols[tok]

    # shunting-yard into RPN
    prec = {"|": 1, "^": 2, "&": 3, "<<": 4, ">>": 4, "+": 5, "-": 5, "*": 6, "u-": 7, "~": 7}
    output: List = []
    stack: List[str] = []
    prev_was_value = False
    for tok in tokens:
        if tok not in prec and tok not in "()":
            output.append(resolve(tok))
            prev_was_value = True
        elif tok == "(":
            stack.append(tok)
            prev_was_value = False
        elif tok == ")":
            while stack and stack[-1] != "(":
                output.append(stack.pop())
            if not stack:
                raise ValueError("unbalanced parens")
            stack.pop()
            prev_was_value = True
        else:
            op = tok
            if tok == "-" and not prev_was_value:
                op = "u-"
            elif tok == "~":
                op = "~"
            while (
                stack
                and stack[-1] != "("
                and prec.get(stack[-1], 0) >= prec[op]
                and op not in ("u-", "~")
            ):
                output.append(stack.pop())
            stack.append(op)
            prev_was_value = False
    while stack:
        op = stack.pop()
        if op == "(":
            raise ValueError("unbalanced parens")
        output.append(op)

    # evaluate RPN
    values: List[int] = []
    for item in output:
        if isinstance(item, int):
            values.append(item)
        elif item == "u-":
            values.append(-values.pop())
        elif item == "~":
            values.append(~values.pop())
        else:
            b = values.pop()
            a = values.pop()
            values.append(
                {
                    "+": a + b,
                    "-": a - b,
                    "*": a * b,
                    "<<": a << b,
                    ">>": a >> b,
                    "&": a & b,
                    "|": a | b,
                    "^": a ^ b,
                }[item]
            )
    if len(values) != 1:
        raise ValueError("malformed expression")
    return values[0]


def _split_operands(text: str) -> List[str]:
    """Split on commas not inside parentheses or quotes."""
    out: List[str] = []
    depth = 0
    in_string = False
    current = []
    for ch in text:
        if ch == '"':
            in_string = not in_string
            current.append(ch)
        elif in_string:
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            out.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        out.append("".join(current))
    return out


def _parse_string(text: str, lineno: int) -> bytes:
    text = text.strip()
    if len(text) < 2 or text[0] != '"' or text[-1] != '"':
        raise AssemblerError(f"expected quoted string, got {text!r}", lineno)
    body = text[1:-1]
    out = bytearray()
    i = 0
    escapes = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, '"': 34}
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            esc = body[i + 1]
            if esc not in escapes:
                raise AssemblerError(f"bad escape \\{esc}", lineno)
            out.append(escapes[esc])
            i += 2
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def assemble(source: str, base: int = 0) -> Program:
    """Convenience one-shot: assemble ``source`` at ``base``."""
    return Assembler(base=base).assemble(source)
