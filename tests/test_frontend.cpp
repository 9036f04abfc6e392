/**
 * @file
 * Binary kernel frontend unit tests: RV32IM decode, image container
 * parsing (.hex / .bin / ELF), translation to the warpcomp IR, and the
 * loader's fatal error paths (each malformed input must be a clean
 * exit-1 diagnostic naming the offending file/pc, never a crash).
 */

#include <fstream>
#include <gtest/gtest.h>

#include "frontend/frontend.hpp"
#include "frontend/image.hpp"
#include "frontend/rv32.hpp"
#include "frontend/translate.hpp"
#include "isa/disasm.hpp"

using namespace warpcomp;

namespace {

RvInst
decodeOk(u32 word)
{
    const RvDecodeResult r = decodeRv32(word);
    EXPECT_TRUE(r.ok()) << (r.error ? r.error->reason : "no error");
    return r.ok() ? *r.inst : RvInst{};
}

std::string
decodeErr(u32 word)
{
    const RvDecodeResult r = decodeRv32(word);
    EXPECT_FALSE(r.ok()) << "word 0x" << std::hex << word
                         << " decoded as " << rvDisasm(*r.inst);
    return r.ok() ? std::string{} : r.error->reason;
}

/** Write @p text to a fresh file under the gtest temp dir. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream os(path, std::ios::binary);
    os << text;
    return path;
}

KernelImage
imageOf(const std::vector<u32> &words)
{
    KernelImage img;
    // Assigned from a std::string: assigning the literal directly
    // trips a GCC 12 -Wrestrict false positive at -O3.
    img.name = std::string("t");
    img.path = "test.hex";
    img.words = words;
    return img;
}

} // namespace

// ---------------------------------------------------------------------
// Decoder

TEST(Rv32Decode, CoreFormats)
{
    // lw a0, 0(x0)
    RvInst in = decodeOk(0x00002503);
    EXPECT_EQ(in.op, RvOp::Lw);
    EXPECT_EQ(in.rd, 10);
    EXPECT_EQ(in.rs1, 0);
    EXPECT_EQ(in.imm, 0);

    // addi t4, x0, -1 — I-immediates sign-extend
    in = decodeOk(0xFFF00E93);
    EXPECT_EQ(in.op, RvOp::Addi);
    EXPECT_EQ(in.rd, 29);
    EXPECT_EQ(in.imm, -1);

    // mul t3, t1, t2
    in = decodeOk(0x02730E33);
    EXPECT_EQ(in.op, RvOp::Mul);
    EXPECT_EQ(in.rd, 28);
    EXPECT_EQ(in.rs1, 6);
    EXPECT_EQ(in.rs2, 7);

    // bge t3, a3, +36
    in = decodeOk(0x02DE5263);
    EXPECT_EQ(in.op, RvOp::Bge);
    EXPECT_EQ(in.rs1, 28);
    EXPECT_EQ(in.rs2, 13);
    EXPECT_EQ(in.imm, 36);

    // slli t4, t3, 2
    in = decodeOk(0x002E1E93);
    EXPECT_EQ(in.op, RvOp::Slli);
    EXPECT_EQ(in.imm, 2);

    // sw t5, 0(t6)
    in = decodeOk(0x01EFA023);
    EXPECT_EQ(in.op, RvOp::Sw);
    EXPECT_EQ(in.rs1, 31);
    EXPECT_EQ(in.rs2, 30);
    EXPECT_EQ(in.imm, 0);
}

TEST(Rv32Decode, GpuConventions)
{
    // csrr t0, 0xCC0 (tid)
    RvInst in = decodeOk(0xCC0022F3);
    EXPECT_EQ(in.op, RvOp::Csrr);
    EXPECT_EQ(in.rd, 5);
    EXPECT_EQ(in.csr, 0xCC0u);

    EXPECT_EQ(decodeOk(0x0000000F).op, RvOp::Fence);
    EXPECT_EQ(decodeOk(0x00000073).op, RvOp::Ecall);
}

TEST(Rv32Decode, SharedMemoryCustomOps)
{
    // lds.w t5, 0(t5): imm=0, rs1=30, f3=010, rd=30, opcode 0x0B
    RvInst in = decodeOk((30u << 15) | (0b010u << 12) | (30u << 7) | 0x0B);
    EXPECT_EQ(in.op, RvOp::LdsW);
    EXPECT_EQ(in.rd, 30);
    EXPECT_EQ(in.rs1, 30);

    // sts.w t4, 0(t6): rs2=29, rs1=31, f3=010, opcode 0x2B
    in = decodeOk((29u << 20) | (31u << 15) | (0b010u << 12) | 0x2B);
    EXPECT_EQ(in.op, RvOp::StsW);
    EXPECT_EQ(in.rs1, 31);
    EXPECT_EQ(in.rs2, 29);
}

TEST(Rv32Decode, NegativeJumpOffset)
{
    // jal x0, -40 (reduction back edge): J-imm sign-extends
    const RvInst in = decodeOk(0xFD9FF06F);
    EXPECT_EQ(in.op, RvOp::Jal);
    EXPECT_EQ(in.rd, 0);
    EXPECT_EQ(in.imm, -40);
}

TEST(Rv32Decode, RejectsUnknownWords)
{
    EXPECT_FALSE(decodeErr(0xFFFFFFFF).empty());
    EXPECT_FALSE(decodeErr(0x00000000).empty());
    // lb a0, 0(x0) — byte loads are outside the subset
    EXPECT_FALSE(decodeErr(0x00000503).empty());
    // flw fa0, 0(a0) — no floating-point loads
    EXPECT_FALSE(decodeErr(0x00052507).empty());
}

TEST(Rv32Decode, DisasmNamesOperands)
{
    const RvInst in = decodeOk(0x02730E33); // mul t3, t1, t2
    const std::string text = rvDisasm(in);
    EXPECT_NE(text.find("mul"), std::string::npos) << text;
    EXPECT_NE(text.find("x28"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Image containers

TEST(HexImage, ParsesDirectivesLabelsAndWords)
{
    const ImageLoadResult r = parseHexImage(
        "# comment\n"
        ".name demo\n"
        ".block 64\n"
        ".smem 256\n"
        "00000513    # li a0, 0\n"
        "@loop\n"
        "00000073\n",
        "demo.hex");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.image->name, "demo");
    EXPECT_EQ(r.image->blockDim, 64u);
    EXPECT_EQ(r.image->smemBytes, 256u);
    ASSERT_EQ(r.image->words.size(), 2u);
    EXPECT_EQ(r.image->words[0], 0x00000513u);
    EXPECT_EQ(r.image->symbols.at("loop"), 1u);
}

TEST(HexImage, ErrorsNameLineNumbers)
{
    ImageLoadResult r = parseHexImage(".block zero\n", "k.hex");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("k.hex:1"), std::string::npos) << r.error;

    r = parseHexImage("00000073\n@a\n@a\n", "k.hex");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("duplicate label"), std::string::npos);

    r = parseHexImage("00000073\nnot-hex\n", "k.hex");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("k.hex:2"), std::string::npos) << r.error;

    r = parseHexImage("# only comments\n", "k.hex");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("no instruction words"), std::string::npos);
}

TEST(BinImage, RoundTripsWordsAndRejectsTruncation)
{
    const std::vector<u8> good = {0x73, 0x00, 0x00, 0x00,
                                  0x0F, 0x00, 0x00, 0x00};
    const ImageLoadResult r = parseBinImage(good, "k.bin");
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.image->words.size(), 2u);
    EXPECT_EQ(r.image->words[0], 0x00000073u);

    EXPECT_FALSE(parseBinImage({}, "k.bin").ok());
    const ImageLoadResult t =
        parseBinImage({0x73, 0x00, 0x00}, "k.bin");
    ASSERT_FALSE(t.ok());
    EXPECT_NE(t.error.find("multiple of 4"), std::string::npos) << t.error;
}

namespace {

void
put32(std::vector<u8> &v, size_t at, u32 x)
{
    v[at] = static_cast<u8>(x);
    v[at + 1] = static_cast<u8>(x >> 8);
    v[at + 2] = static_cast<u8>(x >> 16);
    v[at + 3] = static_cast<u8>(x >> 24);
}

void
put16(std::vector<u8> &v, size_t at, u16 x)
{
    v[at] = static_cast<u8>(x);
    v[at + 1] = static_cast<u8>(x >> 8);
}

/** Minimal RISC-V ELF32: null section + one exec PROGBITS section. */
std::vector<u8>
tinyElf(const std::vector<u32> &text, u16 machine = 243)
{
    const size_t textOff = 52 + 2 * 40;
    std::vector<u8> v(textOff + 4 * text.size(), 0);
    v[0] = 0x7F; v[1] = 'E'; v[2] = 'L'; v[3] = 'F';
    v[4] = 1;                       // ELFCLASS32
    v[5] = 1;                       // ELFDATA2LSB
    put16(v, 18, machine);
    put32(v, 32, 52);               // e_shoff
    put16(v, 46, 40);               // e_shentsize
    put16(v, 48, 2);                // e_shnum
    const size_t sh = 52 + 40;      // section 1
    put32(v, sh + 4, 1);            // SHT_PROGBITS
    put32(v, sh + 8, 0x4);          // SHF_EXECINSTR
    put32(v, sh + 16, static_cast<u32>(textOff));
    put32(v, sh + 20, static_cast<u32>(4 * text.size()));
    for (size_t i = 0; i < text.size(); ++i)
        put32(v, textOff + 4 * i, text[i]);
    return v;
}

} // namespace

TEST(ElfImage, LoadsTextSection)
{
    const ImageLoadResult r =
        parseElfImage(tinyElf({0x00000513, 0x00000073}), "k.elf");
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.image->words.size(), 2u);
    EXPECT_EQ(r.image->words[1], 0x00000073u);
}

TEST(ElfImage, RejectsBadMagicAndMachine)
{
    std::vector<u8> bad = tinyElf({0x00000073});
    bad[0] = 'X';
    ImageLoadResult r = parseElfImage(bad, "k.elf");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("bad magic"), std::string::npos) << r.error;

    r = parseElfImage(tinyElf({0x00000073}, /*machine=*/62), "k.elf");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("RISC-V"), std::string::npos) << r.error;
}

TEST(ElfImage, EveryTruncationPrefixFailsCleanly)
{
    // Chop a valid ELF at every possible length: each prefix must come
    // back as a structured error — never a crash or an out-of-bounds
    // read (the ASan lane runs this too). Only the full image parses.
    const std::vector<u8> full = tinyElf({0x00000513, 0x00000073});
    for (size_t len = 0; len < full.size(); ++len) {
        const std::vector<u8> prefix(full.begin(),
                                     full.begin() +
                                         static_cast<long>(len));
        const ImageLoadResult r = parseElfImage(prefix, "trunc.elf");
        EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes parsed";
        EXPECT_FALSE(r.error.empty()) << len;
    }
    EXPECT_TRUE(parseElfImage(full, "full.elf").ok());
}

TEST(ElfImage, HostileHeaderFieldsFailCleanly)
{
    // Section table pointers far past the end of the file, oversized
    // entry counts, and a section whose payload overruns the image:
    // all must be rejected without touching out-of-bounds memory.
    const std::vector<u8> good = tinyElf({0x00000073});
    for (auto mutate : {
             +[](std::vector<u8> &v) { put32(v, 32, 0xFFFFFFF0u); },
             +[](std::vector<u8> &v) { put16(v, 48, 0xFFFF); },
             +[](std::vector<u8> &v) { put16(v, 46, 0); },
             +[](std::vector<u8> &v) {
                 put32(v, 52 + 40 + 20, 0xFFFFFFF0u);    // sh_size
             },
             +[](std::vector<u8> &v) {
                 put32(v, 52 + 40 + 16, 0xFFFFFFF0u);    // sh_offset
             },
         }) {
        std::vector<u8> bad = good;
        mutate(bad);
        const ImageLoadResult r = parseElfImage(bad, "hostile.elf");
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.error.empty());
    }
}

TEST(ImageParsers, DeterministicGarbageNeverCrashes)
{
    // Seeded pseudo-random byte soup through all three container
    // parsers; every outcome must be ok-or-structured-error, and the
    // wrong-magic soups must be errors.
    u64 state = 0x1234567890ABCDEFull;
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<u8>(state >> 56);
    };
    for (int round = 0; round < 64; ++round) {
        std::vector<u8> soup(static_cast<size_t>(round) * 7 + 1);
        for (u8 &b : soup)
            b = next();
        const ImageLoadResult elf = parseElfImage(soup, "soup.elf");
        EXPECT_FALSE(elf.ok());
        EXPECT_FALSE(elf.error.empty());
        // .bin accepts any word-multiple payload (it is raw words), so
        // only the structural invariant applies: ok() or an error.
        const ImageLoadResult bin = parseBinImage(soup, "soup.bin");
        EXPECT_TRUE(bin.ok() || !bin.error.empty());
        const std::string text(soup.begin(), soup.end());
        const ImageLoadResult hex = parseHexImage(text, "soup.hex");
        EXPECT_TRUE(hex.ok() || !hex.error.empty());
    }
}

TEST(HexImage, GarbageLinesAreStructuredErrors)
{
    for (const char *text :
         {"xyzzy\n", "0000005G\n", "@\n", "00000073 junk\n",
          ".block ten\n", ".name a b\n", ""}) {
        const ImageLoadResult r = parseHexImage(text, "bad.hex");
        EXPECT_FALSE(r.ok()) << text;
        EXPECT_NE(r.error.find("bad.hex"), std::string::npos)
            << "diagnostic must name the file: " << r.error;
    }
}

// ---------------------------------------------------------------------
// Translation

TEST(Translate, MinimalKernel)
{
    // lw a0, 0(x0); ecall -> LDC + EXIT
    const TranslateResult r =
        translateImage(imageOf({0x00002503, 0x00000073}));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.kernel->size(), 2u);
    EXPECT_EQ(r.kernel->at(0).op, Opcode::Ldc);
    EXPECT_EQ(r.kernel->at(1).op, Opcode::Exit);
    EXPECT_EQ(r.kernel->numRegs(), 1u);
}

TEST(Translate, WritesToX0AreDropped)
{
    // addi x0, x0, 0 (nop); ecall
    const TranslateResult r =
        translateImage(imageOf({0x00000013, 0x00000073}));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.kernel->size(), 1u);
    EXPECT_EQ(r.kernel->at(0).op, Opcode::Exit);
}

TEST(Translate, PlainJumpSurvivesRdZeroSkip)
{
    // jal x0, +8 (skip one word); addi t0, x0, 1; ecall
    // The jump writes x0 but must still emit a BRA, never be dropped
    // as a no-op.
    const TranslateResult r = translateImage(
        imageOf({0x0080006F, 0x00100293, 0x00000073}));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.kernel->size(), 3u);
    EXPECT_EQ(r.kernel->at(0).op, Opcode::Bra);
    EXPECT_EQ(r.kernel->at(0).target, 2u);
}

TEST(Translate, AppendsTrailingExit)
{
    // A kernel that falls off the end still validates: the translator
    // appends the missing EXIT.
    const TranslateResult r = translateImage(imageOf({0x00002503}));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.kernel->size(), 2u);
    EXPECT_EQ(r.kernel->at(1).op, Opcode::Exit);
}

TEST(Translate, MovImmAndMovSpellings)
{
    // addi t0, x0, 42 -> MOV32I; addi t1, t0, 0 -> MOV
    const TranslateResult r = translateImage(
        imageOf({0x02A00293, 0x00028313, 0x00000073}));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.kernel->at(0).op, Opcode::MovImm);
    EXPECT_EQ(r.kernel->at(0).src[0].imm, 42);
    EXPECT_EQ(r.kernel->at(1).op, Opcode::Mov);
}

TEST(Translate, ErrorsNameThePc)
{
    // pc 1: bltu t0, t1, +4 — unsigned compares unsupported
    TranslateResult r = translateImage(
        imageOf({0x00000013, 0x0062E263, 0x00000073}));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("pc 1"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("unsigned"), std::string::npos) << r.error;

    // jal ra, ... — calls unsupported
    r = translateImage(imageOf({0x008000EF, 0x00000073}));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("pc 0"), std::string::npos) << r.error;

    // branch past the end of the image: bge a2, a3, +100
    r = translateImage(imageOf({0x06D65263, 0x00000073}));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;

    // unknown CSR 0x100
    r = translateImage(imageOf({(0x100u << 20) | (0b010u << 12) |
                                (5u << 7) | 0x73, 0x00000073}));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("CSR"), std::string::npos) << r.error;

    // sw with x0 base: the constant bank is read-only
    r = translateImage(imageOf({0x00502023, 0x00000073}));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("constant bank"), std::string::npos) << r.error;

    // sts.w with x0 base
    r = translateImage(imageOf({(5u << 20) | (0b010u << 12) | 0x2B,
                                0x00000073}));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("x0"), std::string::npos) << r.error;
}

TEST(Translate, RegisterBudgetIsEnforced)
{
    // add t0, t1, t2 needs three registers; a 2-register budget fails
    // with a diagnostic naming the register and the budget.
    TranslateOptions opt;
    opt.maxRegs = 2;
    const TranslateResult r = translateImage(
        imageOf({0x007302B3, 0x00000073}), 0, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("2-register budget"), std::string::npos)
        << r.error;
}

TEST(Translate, EntryOffsetSkipsPrologue)
{
    // Word 0 would be rejected (jalr); entry=1 ignores it.
    const TranslateResult r = translateImage(
        imageOf({0x00008067, 0x00002503, 0x00000073}), 1);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.kernel->size(), 2u);
}

// ---------------------------------------------------------------------
// Loader facade + fatal paths

TEST(KernelFileSpec, RoundTrips)
{
    EXPECT_TRUE(isKernelFileSpec("file:a.hex"));
    EXPECT_FALSE(isKernelFileSpec("vecadd"));
    EXPECT_EQ(kernelFileSpec("a.hex", ""), "file:a.hex");
    EXPECT_EQ(kernelFileSpec("a.hex", "main"), "file:a.hex,entry=main");
}

TEST(LoadKernelFile, StructuredErrors)
{
    KernelLoadResult r = loadKernelFile("/nonexistent/nope.hex");
    ASSERT_FALSE(r.ok());
    EXPECT_FALSE(r.error.empty());

    const std::string p =
        writeTemp("entry.hex", "00000513\n@main\n00000073\n");
    r = loadKernelFile(p, "missing");
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("entry symbol"), std::string::npos) << r.error;

    r = loadKernelFile(p, "main");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.loaded->kernel.size(), 1u);
    EXPECT_EQ(r.loaded->imageSha.size(), 64u);
}

TEST(FrontendDeathTest, TruncatedBinaryExits1)
{
    const std::string p = writeTemp("trunc.bin",
                                    std::string("\x73\x00\x00", 3));
    EXPECT_EXIT(loadKernelFileOrExit(p), ::testing::ExitedWithCode(1),
                "multiple of 4");
}

TEST(FrontendDeathTest, GarbageMagicExits1)
{
    // Big enough to clear the header-size check, so the magic itself
    // is what gets rejected.
    const std::string p = writeTemp("bad.elf", std::string(64, 'x'));
    EXPECT_EXIT(loadKernelFileOrExit(p), ::testing::ExitedWithCode(1),
                "bad magic");
}

TEST(FrontendDeathTest, UnsupportedOpcodeNamesPc)
{
    // flw fa0, 0(a0) — floating-point load, outside the subset.
    const std::string p =
        writeTemp("bad_op.hex", "00002503\n00052507\n00000073\n");
    EXPECT_EXIT(loadKernelFileOrExit(p), ::testing::ExitedWithCode(1),
                "pc 1");
}

TEST(FrontendDeathTest, X0BaseStoreNamesPc)
{
    // sw t0, 0(x0) at pc 0 — read-only constant bank.
    const std::string p = writeTemp("x0_store.hex",
                                    "00502023\n00000073\n");
    EXPECT_EXIT(loadKernelFileOrExit(p), ::testing::ExitedWithCode(1),
                "pc 0.*constant bank");
}

TEST(FrontendDeathTest, MissingFileExits1)
{
    EXPECT_EXIT(loadKernelFileOrExit("/nonexistent/nope.hex"),
                ::testing::ExitedWithCode(1), "--kernel");
}
