// Round-trip tests for the solver-output serialization, plus the snapshot
// corruption suite: every single-byte mutation, truncation, or oversized
// header claim against a v1 or v2 binary snapshot must surface as a clean
// exception — never a crash, hang, or huge allocation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/msrp.hpp"
#include "core/serialize.hpp"
#include "graph/generators.hpp"
#include "service/snapshot.hpp"
#include "util/fnv.hpp"

namespace msrp {
namespace {

TEST(Serialize, RoundTripPreservesEveryCell) {
  Rng rng(1);
  const Graph g = gen::connected_gnp(50, 0.1, rng);
  const std::vector<Vertex> sources{0, 25};
  const MsrpResult res = solve_msrp(g, sources);

  std::stringstream ss;
  write_result(ss, res);
  const SerializedResult loaded = SerializedResult::read(ss);

  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.sources(), sources);
  for (const Vertex s : sources) {
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      EXPECT_EQ(loaded.shortest(s, t), res.shortest(s, t)) << "s=" << s << " t=" << t;
      const auto want = res.row(s, t);
      const auto got = loaded.row(s, t);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
    }
  }
}

TEST(Serialize, InfinityCellsSurvive) {
  // Path: every replacement is infinite.
  const Graph g = gen::path(6);
  const MsrpResult res = solve_msrp(g, {0});
  std::stringstream ss;
  write_result(ss, res);
  const SerializedResult loaded = SerializedResult::read(ss);
  for (Vertex t = 1; t < 6; ++t) {
    for (const Dist d : loaded.row(0, t)) EXPECT_EQ(d, kInfDist);
  }
}

TEST(Serialize, UnreachableTargetsOmitted) {
  Graph g(5, {{0, 1}, {3, 4}});
  const MsrpResult res = solve_msrp(g, {0});
  std::stringstream ss;
  write_result(ss, res);
  const SerializedResult loaded = SerializedResult::read(ss);
  EXPECT_EQ(loaded.shortest(0, 3), kInfDist);
  EXPECT_TRUE(loaded.row(0, 3).empty());
  EXPECT_EQ(loaded.shortest(0, 0), 0u);  // self entry synthesized
}

TEST(Serialize, CommentsIgnoredOnLoad) {
  const Graph g = gen::cycle(5);
  const MsrpResult res = solve_msrp(g, {0});
  std::stringstream ss;
  write_result(ss, res);
  std::stringstream with_comments("# produced by test\n" + ss.str());
  const SerializedResult loaded = SerializedResult::read(with_comments);
  EXPECT_EQ(loaded.shortest(0, 2), 2u);
}

TEST(Serialize, MalformedInputsThrow) {
  {
    std::stringstream ss("wrong header\n");
    EXPECT_THROW(SerializedResult::read(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("msrp-result 1\n");
    EXPECT_THROW(SerializedResult::read(ss), std::invalid_argument);  // no dims
  }
  {
    std::stringstream ss("msrp-result 1\n5 1\n3 2 4\n");  // row before source
    EXPECT_THROW(SerializedResult::read(ss), std::invalid_argument);
  }
  {
    // Row length must equal the distance.
    std::stringstream ss("msrp-result 1\n5 1\nsource 0\n3 2 7\n");
    EXPECT_THROW(SerializedResult::read(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("msrp-result 1\n5 1\nsource 9\n");  // source out of range
    EXPECT_THROW(SerializedResult::read(ss), std::invalid_argument);
  }
}

TEST(Serialize, NonSourceQueryThrows) {
  const Graph g = gen::cycle(4);
  const MsrpResult res = solve_msrp(g, {0});
  std::stringstream ss;
  write_result(ss, res);
  const SerializedResult loaded = SerializedResult::read(ss);
  EXPECT_THROW(loaded.shortest(1, 2), std::invalid_argument);
}

// ------------------------------------------------------ snapshot corruption ---

using service::Snapshot;
using service::SnapshotFormat;

std::string snapshot_image(SnapshotFormat format) {
  Rng rng(17);
  const Graph g = gen::connected_gnp(12, 0.3, rng);
  const MsrpResult res = solve_msrp(g, {0, 7});
  std::stringstream ss;
  Snapshot::capture(res).write(ss, format);
  return ss.str();
}

void expect_read_throws(const std::string& image, const char* what) {
  std::stringstream in(image);
  EXPECT_THROW(Snapshot::read(in), std::invalid_argument) << what;
}

// Every single-bit mutation must be detected: the magic, version, and
// header-size fields are validated directly, and everything else —
// padding included — sits under a checksum.
TEST(SnapshotCorruption, EveryByteFlipIsDetectedV2) {
  const std::string image = snapshot_image(SnapshotFormat::kV2);
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string mutated = image;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    expect_read_throws(mutated, "v2 byte flip survived");
  }
}

// The mmap fast path skips the cells checksum by design; flipped metadata
// must still throw, and flipped cells must never produce an unsafe read —
// exercise every query against every mutated-but-loadable file under ASan.
TEST(SnapshotCorruption, MmapPathStaysMemorySafeUnderByteFlips) {
  const std::string image = snapshot_image(SnapshotFormat::kV2);
  const std::string path = testing::TempDir() + "/msrp_corrupt_mmap.snap";
  std::size_t loadable = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string mutated = image;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x40);
    {
      std::ofstream f(path, std::ios::binary);
      f.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    try {
      const Snapshot snap =
          Snapshot::load(path, {.use_mmap = true, .verify_cells = false});
      ++loadable;  // a cells-section flip: wrong answers allowed, crashes not
      for (const Vertex s : snap.sources()) {
        for (Vertex t = 0; t < snap.num_vertices(); ++t) {
          for (EdgeId e = 0; e < snap.num_edges(); ++e) {
            (void)snap.avoiding(s, t, e);
          }
        }
      }
    } catch (const std::invalid_argument&) {
      // metadata flip, rejected cleanly
    }
  }
  std::remove(path.c_str());
  // Sanity: some flips really did land in the (unverified) cells section.
  EXPECT_GT(loadable, 0u);
  // And with verification on, those same files would have been rejected.
  EXPECT_THROW(
      {
        std::string mutated = image;
        mutated[mutated.size() - 2] ^= 0x40;  // last cells bytes
        std::stringstream in(mutated);
        Snapshot::read(in);
      },
      std::invalid_argument);
}

TEST(SnapshotCorruption, EveryTruncationIsDetected) {
  const std::string image = snapshot_image(SnapshotFormat::kV2);
  for (std::size_t len = 0; len < image.size(); ++len) {
    expect_read_throws(image.substr(0, len), "truncation survived");
  }
}

TEST(SnapshotCorruption, OversizedV2HeaderClaimsAreRejectedCheaply) {
  const std::string image = snapshot_image(SnapshotFormat::kV2);
  // Dimension fields live at fixed offsets in the 72-byte v2 header; the
  // size/overflow guards run before any allocation or checksum pass, so a
  // tiny file claiming enormous tables dies fast instead of allocating.
  const auto patch_u64 = [&](std::size_t off, std::uint64_t v) {
    std::string mutated = image;
    for (int b = 0; b < 8; ++b) mutated[off + b] = static_cast<char>(v >> (8 * b));
    return mutated;
  };
  expect_read_throws(patch_u64(16, 1ULL << 40), "huge n");
  expect_read_throws(patch_u64(16, 0), "zero n");
  expect_read_throws(patch_u64(24, 1ULL << 40), "huge m");
  expect_read_throws(patch_u64(32, 1ULL << 40), "huge sigma");
  expect_read_throws(patch_u64(32, 0), "zero sigma");
  expect_read_throws(patch_u64(40, 1ULL << 60), "huge cell count");
  // Near-overflow combination: n and sigma both huge would overflow a naive
  // sigma * table_bytes size computation.
  expect_read_throws(patch_u64(32, (1ULL << 32) - 2), "sigma at vertex-id ceiling");

  // A hand-made header of the retired version-1 (varint) format, claiming
  // tables at the vertex-id ceiling under a valid trailing checksum: it is
  // refused on its version field alone, before any dimension is read.
  std::vector<std::uint8_t> v1(image.begin(), image.begin() + 8);  // magic
  for (int b = 0; b < 4; ++b) v1.push_back(b == 0 ? 1 : 0);        // version 1 LE
  for (int field = 0; field < 3; ++field) {  // n, m, sigma as LEB128 varints
    std::uint64_t v = (1ULL << 32) - 2;
    for (; v >= 0x80; v >>= 7) v1.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v1.push_back(static_cast<std::uint8_t>(v));
  }
  const std::uint64_t ck = fnv::mix_bytes(fnv::kOffset, v1.data() + 8, v1.size() - 8);
  for (int b = 0; b < 8; ++b) v1.push_back(static_cast<std::uint8_t>(ck >> (8 * b)));
  std::stringstream in(std::string(v1.begin(), v1.end()));
  try {
    Snapshot::read(in);
    ADD_FAILURE() << "version-1 image was accepted";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("unsupported version"), std::string::npos)
        << ex.what();
  }
}

}  // namespace
}  // namespace msrp
