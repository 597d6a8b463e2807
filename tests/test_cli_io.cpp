// Exit-code contract of the CLI's output paths: an unwritable -o must fail
// with exit 1 (an I/O error, not a usage error and never a silent success)
// on BOTH the in-memory and the streaming compress paths. Drives the real
// fpsnr_cli binary as a subprocess (FPSNR_CLI_BIN is injected by CMake).
#include <gtest/gtest.h>

// The whole suite shells out through a POSIX /bin/sh (redirections, exit
// status decoding, /dev paths); it has no Windows port, so it compiles to
// an empty (passing) test binary there rather than pretending.
#if !defined(_WIN32)

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "data/field.h"
#include "transform/transform_codec.h"

namespace {

namespace fs = std::filesystem;

/// Run a shell command, returning the process exit code (-1 if it died
/// without exiting normally).
int run(const std::string& command) {
  const int status = std::system((command + " >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Like run(), but also captures combined stdout+stderr into *output.
int run_capture(const std::string& command, std::string* output) {
  const std::string path =
      (fs::temp_directory_path() / "fpsnr_cli_io_capture.txt").string();
  const int status =
      std::system((command + " >" + path + " 2>&1").c_str());
  std::ifstream in(path);
  output->assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string cli() { return std::string(FPSNR_CLI_BIN); }

class CliIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "fpsnr_cli_io";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    input_ = (dir_ / "in.f32").string();
    std::ofstream out(input_, std::ios::binary);
    std::vector<float> values(1024);
    for (std::size_t i = 0; i < values.size(); ++i)
      values[i] = static_cast<float>(i % 97) * 0.25f;
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(float)));
    ASSERT_TRUE(out.good());
    // A path *under a regular file* can never be created — portable way to
    // make -o unwritable without relying on permissions (root ignores 0555).
    unwritable_ = input_ + "/out.fpbk";
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string compress_cmd() const {
    return cli() + " compress -i " + input_ + " -d 32x32 -m psnr -v 70";
  }

  fs::path dir_;
  std::string input_;
  std::string unwritable_;
};

}  // namespace

TEST_F(CliIoTest, WritableOutputSucceeds) {
  const std::string out = (dir_ / "ok.fpbk").string();
  EXPECT_EQ(run(compress_cmd() + " -o " + out), 0);
  EXPECT_TRUE(fs::exists(out));
}

TEST_F(CliIoTest, InMemoryUnwritableOutputExitsOne) {
  EXPECT_EQ(run(compress_cmd() + " -o " + unwritable_), 1);
  EXPECT_FALSE(fs::exists(unwritable_));
}

TEST_F(CliIoTest, StreamingUnwritableOutputExitsOne) {
  EXPECT_EQ(run(compress_cmd() + " --stream --threads 2 -o " + unwritable_), 1);
  EXPECT_FALSE(fs::exists(unwritable_));
}

TEST_F(CliIoTest, DecompressUnwritableOutputExitsOne) {
  const std::string archive = (dir_ / "a.fpbk").string();
  ASSERT_EQ(run(compress_cmd() + " -o " + archive), 0);
  EXPECT_EQ(run(cli() + " decompress -i " + archive + " -o " + unwritable_), 1);
}

#if defined(__linux__)
TEST_F(CliIoTest, FullDeviceIsDetectedAtFlushTime) {
  // /dev/full accepts the open but fails every write with ENOSPC — the
  // failure mode an unchecked write swallows (exit 0 with no output). The
  // archive writer refuses it before writing, since its final rename
  // would replace the device node; StreamingIo's write-failure test covers
  // the ENOSPC-style path on a regular file.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full unavailable";
  EXPECT_EQ(run(compress_cmd() + " -o /dev/full"), 1);
}
#endif

TEST_F(CliIoTest, CompressBatchRoundTrip) {
  // Manifest smoke: two fields -> two archives, exit 0; a manifest entry
  // with an unwritable OUTDIR fails with 1.
  const std::string manifest = (dir_ / "m.txt").string();
  {
    std::ofstream m(manifest);
    m << "# two views of the same raw file\n"
      << "a in.f32 32x32\n"
      << "b in.f32 1024\n";
  }
  const std::string outdir = (dir_ / "batch").string();
  EXPECT_EQ(run(cli() + " compress-batch -i " + manifest + " -o " + outdir +
                " --psnr 70 --threads 2"),
            0);
  EXPECT_TRUE(fs::exists(outdir + "/a.fpbk"));
  EXPECT_TRUE(fs::exists(outdir + "/b.fpbk"));
  EXPECT_EQ(run(cli() + " compress-batch -i " + manifest + " -o " +
                input_ + "/batch --psnr 70"),
            1);
}

TEST_F(CliIoTest, CompressBatchRejectsHostileManifestNames) {
  // A field name with a path separator would write OUTDIR/../...fpbk —
  // outside the output directory; a duplicate name would hand two archive
  // writers the same file. Both must be manifest validation errors.
  const std::string traversal = (dir_ / "traversal.txt").string();
  std::ofstream(traversal) << "../evil in.f32 32x32\n";
  const std::string outdir = (dir_ / "hostile").string();
  EXPECT_EQ(run(cli() + " compress-batch -i " + traversal + " -o " + outdir +
                " --psnr 70"),
            2);
  EXPECT_FALSE(fs::exists(dir_ / "evil.fpbk"));

  const std::string dup = (dir_ / "dup.txt").string();
  std::ofstream(dup) << "x in.f32 32x32\nx in.f32 1024\n";
  EXPECT_EQ(run(cli() + " compress-batch -i " + dup + " -o " + outdir +
                " --psnr 70 --stream"),
            2);

  // 'X' and 'x' are one archive file on case-insensitive filesystems.
  const std::string cased = (dir_ / "cased.txt").string();
  std::ofstream(cased) << "X in.f32 32x32\nx in.f32 1024\n";
  EXPECT_EQ(run(cli() + " compress-batch -i " + cased + " -o " + outdir +
                " --psnr 70 --stream"),
            2);
}

TEST_F(CliIoTest, MalformedIntegerFlagsExitTwoWithUsage) {
  // Every integer flag routes through one strict checked parser: trailing
  // junk, sign characters, empty values, and out-of-range magnitudes are
  // all usage errors with exit 2 and the usage text — never a silent
  // std::stoull truncation ('8abc' -> 8), a 2^64 wraparound ('-1'), or an
  // uncaught out_of_range that would abort with a core dump.
  const std::vector<std::string> bad = {
      "'8abc'", "'-1'", "''", "'99999999999999999999999'", "'abc'", "'+4'"};
  const std::vector<std::string> flags = {"--threads", "--block-size",
                                          "--block"};
  for (const auto& flag : flags) {
    for (const auto& value : bad) {
      std::string output;
      EXPECT_EQ(run_capture(compress_cmd() + " -o " +
                                (dir_ / "junk.fpbk").string() + " " + flag +
                                " " + value,
                            &output),
                2)
          << flag << " " << value;
      EXPECT_NE(output.find("fpsnr_cli"), std::string::npos)
          << "no usage text for " << flag << " " << value;
    }
  }
}

TEST_F(CliIoTest, MalformedValueFlagExitsTwoWithUsage) {
  // -v/--value/--psnr parse as a checked double: the whole token must
  // parse and be finite. '80abc' (stod stops at the junk), '', 'nan',
  // 'inf', and overflowing exponents are usage errors with exit 2.
  const std::vector<std::string> bad = {"'80abc'", "''", "'nan'", "'inf'",
                                        "'1e999999'", "'abc'"};
  for (const auto& flag : {"-v", "--value", "--psnr"}) {
    for (const auto& value : bad) {
      std::string output;
      EXPECT_EQ(run_capture(cli() + " compress -i " + input_ +
                                " -d 32x32 -m psnr -o " +
                                (dir_ / "junk.fpbk").string() + " " +
                                std::string(flag) + " " + value,
                            &output),
                2)
          << flag << " " << value;
      EXPECT_NE(output.find("fpsnr_cli"), std::string::npos)
          << "no usage text for " << flag << " " << value;
    }
  }
}

TEST_F(CliIoTest, WellFormedNumericFlagsStillWork) {
  // The strict parsers must not reject anything the loose ones accepted.
  const std::string out = (dir_ / "strict-ok.fpbk").string();
  EXPECT_EQ(run(compress_cmd() + " --threads 2 --block-size 16 -o " + out), 0);
  EXPECT_TRUE(fs::exists(out));
  const std::string dec = (dir_ / "strict-ok.f32").string();
  EXPECT_EQ(run(cli() + " decompress -i " + out + " --block 0 -o " + dec), 0);
}

TEST_F(CliIoTest, FlatTransformArchiveInspectsAndDecodes) {
  // Legacy flat FPTC streams decode and inspect like any archive file;
  // only --block, which needs an FPBK index, is a usage error.
  std::vector<float> values(1024);
  for (std::size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<float>(i % 97) * 0.25f;
  fpsnr::transform::Params params;
  params.bin_width = 1e-3;
  const auto flat = fpsnr::transform::compress<float>(
      values, fpsnr::data::Dims{32, 32}, params);
  const std::string archive = (dir_ / "flat.fptc").string();
  std::ofstream(archive, std::ios::binary)
      .write(reinterpret_cast<const char*>(flat.data()),
             static_cast<std::streamsize>(flat.size()));

  std::string output;
  EXPECT_EQ(run_capture(cli() + " inspect -i " + archive, &output), 0)
      << output;
  EXPECT_NE(output.find("transform-haar"), std::string::npos) << output;
  const std::string dec = (dir_ / "flat.f32").string();
  EXPECT_EQ(run_capture(cli() + " decompress -i " + archive + " -o " + dec +
                            " --report-psnr",
                        &output),
            0)
      << output;
  EXPECT_NE(output.find("n/a (not an FPBK archive)"), std::string::npos)
      << output;
  EXPECT_EQ(fs::file_size(dec), values.size() * sizeof(float));
  EXPECT_EQ(run(cli() + " decompress -i " + archive + " --block 0 -o " + dec),
            2);
}

TEST_F(CliIoTest, MmapFlagIsADeprecatedNoOp) {
  const std::string archive = (dir_ / "m.fpbk").string();
  ASSERT_EQ(run(compress_cmd() + " --block-size 8 -o " + archive), 0);
  const std::string plain = (dir_ / "plain.f32").string();
  const std::string mapped = (dir_ / "mapped.f32").string();
  ASSERT_EQ(run(cli() + " decompress -i " + archive + " --block 2 -o " + plain),
            0);
  std::string output;
  EXPECT_EQ(run_capture(cli() + " decompress -i " + archive +
                            " --mmap --block 2 --mmap -o " + mapped,
                        &output),
            0)
      << output;
  const std::string warning = "warning: --mmap is deprecated";
  const auto first = output.find(warning);
  ASSERT_NE(first, std::string::npos) << output;
  EXPECT_EQ(output.find(warning, first + 1), std::string::npos)
      << "warned more than once: " << output;
  std::ifstream a(plain, std::ios::binary), b(mapped, std::ios::binary);
  const std::string plain_bytes{std::istreambuf_iterator<char>(a),
                                std::istreambuf_iterator<char>()};
  const std::string mapped_bytes{std::istreambuf_iterator<char>(b),
                                 std::istreambuf_iterator<char>()};
  EXPECT_FALSE(plain_bytes.empty());
  EXPECT_EQ(plain_bytes, mapped_bytes);
}

TEST_F(CliIoTest, CompressBatchRejectsNonPsnrModes) {
  // The batch engine is fixed-PSNR only; `-m abs -v 1e-3` must not be
  // silently reinterpreted as a 0.001 dB PSNR target.
  const std::string manifest = (dir_ / "m2.txt").string();
  std::ofstream(manifest) << "a in.f32 32x32\n";
  EXPECT_EQ(run(cli() + " compress-batch -i " + manifest + " -o " +
                (dir_ / "modes").string() + " -m abs -v 0.001"),
            2);
}

#endif  // !defined(_WIN32)
