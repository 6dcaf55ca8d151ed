"""Tests for the two-pass assembler."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.riscv import AssemblerError, MemoryBus, RiscvCpu, assemble, decode
from repro.riscv.disasm import disassemble_word
from repro.riscv.isa import OP_AUIPC, OP_LUI, encode_u


def execute(source, max_instructions=100_000):
    bus = MemoryBus()
    bus.add_ram(0, 64 * 1024)
    program = assemble(source)
    bus.load_blob(0, program.image)
    cpu = RiscvCpu(bus)
    cpu.run(max_instructions=max_instructions)
    return cpu


class TestDirectives:
    def test_word_emits_little_endian(self):
        program = assemble(".word 0x11223344")
        assert program.image == b"\x44\x33\x22\x11"

    def test_multiple_words(self):
        program = assemble(".word 1, 2, 3")
        assert len(program.image) == 12

    def test_byte_and_half(self):
        program = assemble(".byte 1, 2\n.half 0x0304")
        assert program.image == b"\x01\x02\x04\x03"

    def test_asciz_terminates(self):
        program = assemble('.asciz "hi"')
        assert program.image == b"hi\x00"

    def test_ascii_no_terminator(self):
        program = assemble('.ascii "hi"')
        assert program.image == b"hi"

    def test_string_escapes(self):
        program = assemble(r'.asciz "a\n\t\0"')
        assert program.image == b"a\n\t\x00\x00"

    def test_org_pads(self):
        program = assemble(".byte 1\n.org 8\n.byte 2")
        assert program.image == b"\x01" + b"\x00" * 7 + b"\x02"

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".org 8\n.org 4\n.byte 1")

    def test_align(self):
        program = assemble(".byte 1\n.align 2\n.word 5")
        assert len(program.image) == 8

    def test_space(self):
        program = assemble(".space 5\n.byte 9")
        assert program.image == b"\x00" * 5 + b"\x09"

    def test_equ_constants(self):
        cpu = execute("""
            .equ MAGIC, 0x1234
            li a0, MAGIC
            ebreak
        """)
        assert cpu.read_reg(10) == 0x1234

    def test_equ_expression(self):
        cpu = execute("""
            .equ BASE, 0x100
            .equ OFFSET, BASE + 0x20
            li a0, OFFSET
            ebreak
        """)
        assert cpu.read_reg(10) == 0x120


class TestLabelsAndSymbols:
    def test_forward_reference(self):
        cpu = execute("""
            j end
            li a0, 1
        end:
            li a0, 99
            ebreak
        """)
        assert cpu.read_reg(10) == 99

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x:\nx:\n nop")

    def test_unknown_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("j nowhere")

    def test_symbol_table(self):
        program = assemble("""
            nop
        here:
            nop
        """)
        assert program.symbol("here") == 4

    def test_la_loads_address(self):
        cpu = execute("""
            la a0, data
            lw a1, 0(a0)
            ebreak
        data:
            .word 0xABCD
        """)
        assert cpu.read_reg(11) == 0xABCD

    def test_hi_lo_relocation(self):
        cpu = execute("""
            .equ ADDR, 0x12345678
            lui a0, %hi(ADDR)
            addi a0, a0, %lo(ADDR)
            ebreak
        """)
        assert cpu.read_reg(10) == 0x12345678

    def test_hi_lo_with_carry(self):
        # %lo is negative when bit 11 is set; %hi must compensate
        cpu = execute("""
            .equ ADDR, 0x12345FFC
            lui a0, %hi(ADDR)
            addi a0, a0, %lo(ADDR)
            ebreak
        """)
        assert cpu.read_reg(10) == 0x12345FFC


class TestPseudoInstructions:
    def test_li_small_and_large(self):
        cpu = execute("""
            li a0, 42
            li a1, -42
            li a2, 0xDEADBEEF
            li a3, 0x800
            ebreak
        """)
        assert cpu.read_reg(10) == 42
        assert cpu.read_reg(11) == (-42) & 0xFFFFFFFF
        assert cpu.read_reg(12) == 0xDEADBEEF
        assert cpu.read_reg(13) == 0x800

    def test_mv_not_neg(self):
        cpu = execute("""
            li a0, 7
            mv a1, a0
            not a2, a0
            neg a3, a0
            ebreak
        """)
        assert cpu.read_reg(11) == 7
        assert cpu.read_reg(12) == (~7) & 0xFFFFFFFF
        assert cpu.read_reg(13) == (-7) & 0xFFFFFFFF

    def test_seqz_snez(self):
        cpu = execute("""
            li a0, 0
            seqz a1, a0
            snez a2, a0
            li a3, 5
            seqz a4, a3
            snez a5, a3
            ebreak
        """)
        assert cpu.read_reg(11) == 1
        assert cpu.read_reg(12) == 0
        assert cpu.read_reg(14) == 0
        assert cpu.read_reg(15) == 1

    def test_branch_zero_variants(self):
        cpu = execute("""
            li a0, 0
            li t0, -3
            bltz t0, one
            j fail
        one:
            li t1, 3
            bgtz t1, two
            j fail
        two:
            beqz x0, three
        fail:
            li a0, 111
            ebreak
        three:
            li a0, 222
            ebreak
        """)
        assert cpu.read_reg(10) == 222

    def test_bgt_ble_swap_operands(self):
        cpu = execute("""
            li t0, 10
            li t1, 3
            bgt t0, t1, good
            li a0, 0
            ebreak
        good:
            li a0, 1
            ble t1, t0, done
            li a0, 0
        done:
            ebreak
        """)
        assert cpu.read_reg(10) == 1

    def test_nop_encodes_as_addi(self):
        program = assemble("nop")
        inst = decode(int.from_bytes(program.image, "little"))
        assert inst.mnemonic == "addi" and inst.rd == 0 and inst.rs1 == 0

    def test_call_far_target(self):
        # call uses auipc+jalr so it reaches beyond +-1MB jal range
        cpu = execute("""
            call fn
            ebreak
        .org 0x4000
        fn:
            li a0, 77
            ret
        """)
        assert cpu.read_reg(10) == 77


class TestOperandSyntax:
    def test_memory_operand_with_expression(self):
        cpu = execute("""
            .equ OFF, 8
            li a0, 0x1000
            li a1, 5
            sw a1, OFF(a0)
            lw a2, 8(a0)
            ebreak
        """)
        assert cpu.read_reg(12) == 5

    def test_empty_offset_means_zero(self):
        cpu = execute("""
            li a0, 0x1000
            li a1, 3
            sw a1, (a0)
            lw a2, (a0)
            ebreak
        """)
        assert cpu.read_reg(12) == 3

    def test_expression_operators(self):
        cpu = execute("""
            li a0, (1 << 4) | 3
            li a1, 100 - 2 * 10
            li a2, ~0xF0 & 0xFF
            ebreak
        """)
        assert cpu.read_reg(10) == 0x13
        assert cpu.read_reg(11) == 80
        assert cpu.read_reg(12) == 0x0F

    def test_comments_ignored(self):
        cpu = execute("""
            li a0, 1  # load one
            # a full comment line
            ebreak
        """)
        assert cpu.read_reg(10) == 1

    def test_unknown_mnemonic_reports_line(self):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble("nop\nbogus a0, a1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("add a0, a1")

    def test_shift_amount_range(self):
        with pytest.raises(AssemblerError):
            assemble("slli a0, a1, 32")

    def test_base_address(self):
        program = assemble("target:\n j target", base=0x1000)
        assert program.symbol("target") == 0x1000


class TestImmediateRanges:
    """U-type and ``li``/``la`` immediates are range-checked, never
    silently truncated (the I/S/B/J formats already were)."""

    @pytest.mark.parametrize("source", [
        "lui a0, 0x100000",
        "auipc a0, 0x100000",
        "lui a0, -0x80001",
        "auipc a0, -0x80001",
    ])
    def test_u_immediate_out_of_range(self, source):
        with pytest.raises(AssemblerError, match=r"^line 2: U-immediate -?\d+ out of range"):
            assemble("nop\n" + source)

    @pytest.mark.parametrize("source", [
        "li a0, 0x100000000",
        "li a0, -2147483649",
        "la a0, 0x100000000",
    ])
    def test_li_value_out_of_range(self, source):
        with pytest.raises(AssemblerError, match=r"^line 2: l[ia] value -?\d+ does not fit"):
            assemble("nop\n" + source)

    @pytest.mark.parametrize("imm,word", [
        ("0xFFFFF", 0xFFFFF537),
        ("-0x80000", 0x80000537),
        ("0x7FFFF", 0x7FFFF537),
        ("-1", 0xFFFFF537),
        ("%hi(0xFFFFFFFF)", 0x00000537),
    ])
    def test_u_immediate_edges(self, imm, word):
        assert assemble(f"lui a0, {imm}").image == word.to_bytes(4, "little")

    def test_li_edges_load_exactly(self):
        cpu = execute("""
            li a0, 0xFFFFFFFF
            li a1, -2147483648
            li a2, 0x80000000
            ebreak
        """)
        assert cpu.read_reg(10) == 0xFFFFFFFF
        assert cpu.read_reg(11) == 0x80000000
        assert cpu.read_reg(12) == 0x80000000

    #: SHA-256 of every bundled firmware image, recorded before the
    #: range checks existed: the checks reject nothing they assemble
    BUNDLED_IMAGES = {
        "forwarder": "1767e1ef85686bede2c602e7fa8ed33e65497f3e742263d947398fe1755bbf4b",
        "firewall": "3c5024061e75c36212a2fbb9edd87f5f73928df653594ea4522ab32510407c47",
        "forwarder_irq": "3cd51d4ff03955cc1eb389ac069227b433bfa3d41e8b63de6d7b1ed38b7b7b06",
        "flow_counter": "4fd88c879829e7322d73b4614a6a199714da2917d538117eee8870e11145ae17",
        "pkt_gen": "21c3d4e5c3a1f64cccc72ed9355b2eb0c0f19de67e1bbf9e1a9f39c4037754e9",
        "pigasus": "005abd6a537ac6ffc21fad6f5cf1eeb72e4845a53ad22c7b7550e19eb009fafb",
    }

    def test_bundled_firmware_images_unchanged(self):
        from repro.verify.registry import bundled_firmwares

        images = {
            fw.name: hashlib.sha256(assemble(fw.asm).image).hexdigest()
            for fw in bundled_firmwares()
        }
        assert images == self.BUNDLED_IMAGES

    @given(
        upper=st.one_of(
            st.sampled_from([0, 1, 0x7FFFF, 0x80000, 0xFFFFE, 0xFFFFF]),
            st.integers(0, 0xFFFFF),
        ),
        rd=st.integers(0, 31),
        opcode=st.sampled_from([OP_LUI, OP_AUIPC]),
    )
    def test_u_type_round_trip(self, upper, rd, opcode):
        """encode -> decode -> disasm -> assemble gives the same word."""
        word = encode_u(upper << 12, rd, opcode)
        inst = decode(word)
        assert inst.rd == rd and inst.imm & 0xFFFFFFFF == upper << 12
        assert assemble(disassemble_word(word)).image == word.to_bytes(4, "little")

    @given(st.one_of(
        st.sampled_from([-0x80000, -1, 0x80000, 0xFFFFF]),
        st.integers(-0x80000, 0xFFFFF),
    ))
    def test_every_legal_u_immediate_assembles(self, upper):
        word = int.from_bytes(assemble(f"lui a0, {upper}").image, "little")
        assert word >> 12 == upper & 0xFFFFF

    @given(st.one_of(
        st.sampled_from([-0x80001, 0x100000]),
        st.integers(max_value=-0x80001),
        st.integers(min_value=0x100000),
    ))
    def test_every_illegal_u_immediate_rejected(self, upper):
        with pytest.raises(AssemblerError, match="U-immediate"):
            assemble(f"auipc a0, {upper}")
