// Wire-format round-trip tests for every message type, decoder hardening,
// and storage-backend (oss) behaviour including MSS staging.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "oss/local_oss.h"
#include "oss/mem_oss.h"
#include "oss/mss_oss.h"
#include "proto/wire.h"
#include "util/clock.h"
#include "util/rng.h"

namespace scalla {
namespace {

using proto::Decode;
using proto::Encode;
using proto::Message;

template <typename T>
T RoundTrip(const T& in) {
  const auto decoded = Decode(Encode(Message(in)));
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
  return std::get<T>(*decoded);
}

TEST(WireTest, CmsMessagesRoundTrip) {
  proto::CmsLogin login;
  login.name = "server07:1094";
  login.exports = {"/store", "/scratch"};
  login.allowWrite = false;
  login.isSupervisor = true;
  const auto login2 = RoundTrip(login);
  EXPECT_EQ(login2.name, login.name);
  EXPECT_EQ(login2.exports, login.exports);
  EXPECT_EQ(login2.allowWrite, false);
  EXPECT_EQ(login2.isSupervisor, true);

  proto::CmsLoginResp resp{true, 42, ""};
  EXPECT_EQ(RoundTrip(resp).slot, 42);

  proto::CmsQuery query{"/store/f", 0xDEADBEEF, 1, true};
  const auto query2 = RoundTrip(query);
  EXPECT_EQ(query2.hash, 0xDEADBEEFu);
  EXPECT_EQ(query2.mode, 1);
  EXPECT_TRUE(query2.refresh);

  proto::CmsHave have{"/store/f", 7, true, false, true};
  const auto have2 = RoundTrip(have);
  EXPECT_TRUE(have2.pending);
  EXPECT_FALSE(have2.allowWrite);
  EXPECT_TRUE(have2.newfile);

  RoundTrip(proto::CmsNoHave{"/store/f", 9});
  RoundTrip(proto::CmsGone{"/store/f"});
  EXPECT_EQ(RoundTrip(proto::CmsLoad{5, 123456789}).freeSpace, 123456789u);
}

TEST(WireTest, XrdMessagesRoundTrip) {
  proto::XrdOpen open;
  open.reqId = 99;
  open.path = "/store/data.root";
  open.mode = 1;
  open.create = true;
  open.refresh = true;
  open.avoidNode = 17;
  const auto open2 = RoundTrip(open);
  EXPECT_EQ(open2.reqId, 99u);
  EXPECT_EQ(open2.avoidNode, 17u);

  proto::XrdOpenResp openResp;
  openResp.reqId = 99;
  openResp.status = proto::XrdStatus::kRedirect;
  openResp.err = proto::XrdErr::kStale;
  openResp.redirectNode = 3;
  openResp.waitNs = -1;
  openResp.fileHandle = 0xFFFFFFFFFFFFFFFFull;
  openResp.message = "go there";
  const auto openResp2 = RoundTrip(openResp);
  EXPECT_EQ(openResp2.status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(openResp2.err, proto::XrdErr::kStale);
  EXPECT_EQ(openResp2.fileHandle, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(openResp2.waitNs, -1);

  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  proto::XrdReadResp readResp{5, proto::XrdErr::kNone, binary};
  EXPECT_EQ(RoundTrip(readResp).data, binary);

  RoundTrip(proto::XrdRead{1, 2, 3, 4});
  RoundTrip(proto::XrdWrite{1, 2, 3, "payload"});
  RoundTrip(proto::XrdWriteResp{1, proto::XrdErr::kNoSpace, 7});
  RoundTrip(proto::XrdClose{1, 2});
  RoundTrip(proto::XrdCloseResp{1, proto::XrdErr::kInvalid});
  RoundTrip(proto::XrdStat{1, "/p"});
  RoundTrip(proto::XrdStatResp{1, proto::XrdStatus::kWait, proto::XrdErr::kNone, 0, 55, 9});
  RoundTrip(proto::XrdUnlink{1, "/p"});
  RoundTrip(proto::XrdUnlinkResp{1, proto::XrdStatus::kOk, proto::XrdErr::kNone, 0, 0});
  proto::XrdPrepare prep{8, {"/a", "/b", "/c"}, 0};
  EXPECT_EQ(RoundTrip(prep).paths.size(), 3u);
  RoundTrip(proto::XrdPrepareResp{8, proto::XrdErr::kNone});
  RoundTrip(proto::CnsList{4, "/store"});
  proto::CnsListResp listResp{4, proto::XrdErr::kNone, {"/store/a", "/store/b"}};
  EXPECT_EQ(RoundTrip(listResp).names.size(), 2u);

  proto::XrdReadV readv{3, 77, {{0, 16}, {1 << 20, 4096}, {42, 0}}};
  const auto readv2 = RoundTrip(readv);
  ASSERT_EQ(readv2.segments.size(), 3u);
  EXPECT_EQ(readv2.segments[1].offset, 1u << 20);
  EXPECT_EQ(readv2.segments[1].length, 4096u);
  proto::XrdReadVResp readvResp{3, proto::XrdErr::kNone, {"aa", "", "b"}};
  EXPECT_EQ(RoundTrip(readvResp).chunks.size(), 3u);

  RoundTrip(proto::XrdChecksum{5, "/store/f"});
  proto::XrdChecksumResp ckResp{5, proto::XrdStatus::kOk, proto::XrdErr::kNone, 0, 0,
                                0xDEADBEEF};
  EXPECT_EQ(RoundTrip(ckResp).crc32, 0xDEADBEEFu);
}

TEST(WireTest, PcacheAdminRoundTrip) {
  proto::PcacheAdmin admin{11, proto::PcacheAdminOp::kPurgePath, "/store/old"};
  const auto admin2 = RoundTrip(admin);
  EXPECT_EQ(admin2.reqId, 11u);
  EXPECT_EQ(admin2.op, proto::PcacheAdminOp::kPurgePath);
  EXPECT_EQ(admin2.path, "/store/old");

  proto::PcacheAdminResp resp{11, proto::XrdErr::kNone, 7, 1 << 20, 16};
  const auto resp2 = RoundTrip(resp);
  EXPECT_EQ(resp2.blocksPurged, 7u);
  EXPECT_EQ(resp2.usedBytes, 1u << 20);
  EXPECT_EQ(resp2.blockCount, 16u);
  EXPECT_EQ(resp2.err, proto::XrdErr::kNone);
}

TEST(WireTest, DecodeRejectsMalformedInput) {
  EXPECT_FALSE(Decode("").has_value());
  EXPECT_FALSE(Decode(std::string(1, '\xFF')).has_value());  // unknown type

  // Truncations of a valid frame must never decode (nor crash).
  proto::XrdOpen open;
  open.path = "/store/x";
  const std::string full = Encode(Message(open));
  for (std::size_t len = 1; len < full.size(); ++len) {
    EXPECT_FALSE(Decode(full.substr(0, len)).has_value()) << len;
  }
}

TEST(WireTest, DecodeRejectsOversizedStringClaims) {
  // Type 0 (CmsLogin) with a name length claiming 4GB.
  std::string evil;
  evil.push_back('\0');
  for (int i = 0; i < 4; ++i) evil.push_back('\xFF');
  EXPECT_FALSE(Decode(evil).has_value());
}

TEST(WireTest, FuzzedBytesNeverCrash) {
  util::Rng rng(0xF022);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes(rng.NextBelow(120), '\0');
    for (auto& b : bytes) b = static_cast<char>(rng.NextBelow(256));
    (void)Decode(bytes);  // must not crash or hang; value irrelevant
  }
}

// ------------------------------------------------------------------ oss

TEST(MemOssTest, CreateWriteReadStatUnlink) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  EXPECT_EQ(fs.StateOf("/f"), oss::FileState::kAbsent);
  EXPECT_TRUE(fs.Create("/f"));
  EXPECT_EQ(fs.Create("/f").code(), proto::XrdErr::kExists);
  EXPECT_TRUE(fs.Write("/f", 0, "hello "));
  EXPECT_TRUE(fs.Write("/f", 6, "world"));

  Result<std::string> data = fs.Read("/f", 0, 100);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), "hello world");
  data = fs.Read("/f", 6, 5);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), "world");
  data = fs.Read("/f", 100, 5);
  ASSERT_TRUE(data);
  EXPECT_TRUE(data.value().empty());  // past EOF

  const auto info = fs.Stat("/f");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 11u);

  EXPECT_TRUE(fs.Unlink("/f"));
  EXPECT_EQ(fs.Unlink("/f").code(), proto::XrdErr::kNotFound);
  EXPECT_EQ(fs.Read("/f", 0, 1).code(), proto::XrdErr::kNotFound);
}

TEST(MemOssTest, SparseWriteZeroFills) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  (void)fs.Create("/f");
  (void)fs.Write("/f", 4, "x");
  const Result<std::string> data = fs.Read("/f", 0, 5);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), std::string("\0\0\0\0x", 5));
}

// The running byte total against a recount, under a capacity: random
// creates, overwrites, growth (sparse or not), Puts and unlinks. A model
// that recounts every file decides where kNoSpace must fire, as MemOss did
// before it kept a running total.
TEST(MemOssTest, RunningTotalMatchesARecountUnderCapacity) {
  constexpr std::uint64_t kCapacity = 4096;
  util::ManualClock clock;
  oss::MemOss fs(clock, kCapacity);
  std::map<std::string, std::string> model;
  const auto modelTotal = [&] {
    std::uint64_t total = 0;
    for (const auto& [_, data] : model) total += data.size();
    return total;
  };
  const auto recount = [&] {
    std::uint64_t total = 0;
    for (const std::string& path : fs.List("/")) total += fs.Stat(path)->size;
    return total;
  };
  util::Rng rng(4242);
  int noSpace = 0;
  for (int op = 0; op < 5000; ++op) {
    const std::string path = "/m/" + std::to_string(rng.NextBelow(12));
    const bool exists = model.count(path) != 0;
    switch (rng.NextBelow(8)) {
      case 0: {
        const auto r = fs.Create(path);
        if (exists) {
          EXPECT_EQ(r.code(), proto::XrdErr::kExists) << op;
        } else if (modelTotal() >= kCapacity) {
          EXPECT_EQ(r.code(), proto::XrdErr::kNoSpace) << op;
          ++noSpace;
        } else {
          EXPECT_TRUE(r.ok()) << op;
          model[path];
        }
        break;
      }
      case 1:
      case 2:
      case 3:
      case 4: {
        const std::uint64_t size = exists ? model[path].size() : 0;
        const std::uint64_t offset = rng.NextBelow(size + 300);  // may leave a gap
        std::string data(rng.NextBelow(400), '\0');
        for (auto& b : data) b = static_cast<char>('a' + rng.NextBelow(26));
        const auto r = fs.Write(path, offset, data);
        if (!exists) {
          EXPECT_EQ(r.code(), proto::XrdErr::kNotFound) << op;
          break;
        }
        std::string& want = model[path];
        const std::uint64_t end = offset + data.size();
        if (end > want.size() && modelTotal() + (end - want.size()) > kCapacity) {
          EXPECT_EQ(r.code(), proto::XrdErr::kNoSpace) << op;
          ++noSpace;
          break;
        }
        EXPECT_TRUE(r.ok()) << op;
        if (end > want.size()) want.resize(end, '\0');
        want.replace(offset, data.size(), data);
        break;
      }
      case 5: {
        std::string data(rng.NextBelow(300), 'p');
        fs.Put(path, data);  // seeding bypasses the capacity
        model[path] = std::move(data);
        break;
      }
      default: {
        const auto r = fs.Unlink(path);
        EXPECT_EQ(r.ok(), exists) << op;
        model.erase(path);
      }
    }
    ASSERT_EQ(fs.TotalBytes(), modelTotal()) << "after op " << op;
    ASSERT_EQ(fs.TotalBytes(), recount()) << "after op " << op;
    ASSERT_EQ(fs.UsedBytes(), fs.TotalBytes());
  }
  EXPECT_GT(noSpace, 0);  // the capacity was reached, repeatedly
  for (const auto& [path, want] : model) {
    const auto got = fs.Read(path, 0, static_cast<std::uint32_t>(want.size() + 1));
    ASSERT_TRUE(got);
    EXPECT_EQ(got.value(), want) << path;
  }
}

TEST(MemOssTest, ListByPrefix) {
  util::ManualClock clock;
  oss::MemOss fs(clock);
  fs.Put("/a/1", "");
  fs.Put("/a/2", "");
  fs.Put("/b/1", "");
  EXPECT_EQ(fs.List("/a/").size(), 2u);
  EXPECT_EQ(fs.List("/").size(), 3u);
  EXPECT_TRUE(fs.List("/c").empty());
}

TEST(MssOssTest, StagingLifecycle) {
  util::ManualClock clock;
  oss::MssConfig cfg;
  cfg.stageDelay = std::chrono::seconds(30);
  oss::MssOss fs(clock, cfg);

  fs.PutInMss("/tape/f", 1024);
  EXPECT_EQ(fs.StateOf("/tape/f"), oss::FileState::kInMss);

  const auto remaining = fs.BeginStage("/tape/f");
  ASSERT_TRUE(remaining.has_value());
  EXPECT_EQ(*remaining, Duration(std::chrono::seconds(30)));
  EXPECT_EQ(fs.StateOf("/tape/f"), oss::FileState::kStaging);
  EXPECT_EQ(fs.StagingCount(), 1u);

  clock.Advance(std::chrono::seconds(10));
  const auto poll = fs.BeginStage("/tape/f");
  ASSERT_TRUE(poll.has_value());
  EXPECT_EQ(*poll, Duration(std::chrono::seconds(20)));

  clock.Advance(std::chrono::seconds(21));
  EXPECT_EQ(fs.StateOf("/tape/f"), oss::FileState::kOnline);
  const auto info = fs.Stat("/tape/f");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 1024u);
  EXPECT_EQ(fs.StagingCount(), 0u);
}

TEST(MssOssTest, StageOfUnknownFileFails) {
  util::ManualClock clock;
  oss::MssOss fs(clock, {});
  EXPECT_FALSE(fs.BeginStage("/nope").has_value());
}

TEST(MssOssTest, OnlineFileStageIsInstant) {
  util::ManualClock clock;
  oss::MssOss fs(clock, {});
  fs.Put("/f", "data");
  EXPECT_EQ(fs.BeginStage("/f"), Duration::zero());
}

class LocalOssTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("scalla_oss_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::filesystem::path root_;
};

TEST_F(LocalOssTest, FullLifecycleOnDisk) {
  oss::LocalOss fs(root_);
  EXPECT_TRUE(fs.Create("/store/run1/f.root"));
  EXPECT_EQ(fs.StateOf("/store/run1/f.root"), oss::FileState::kOnline);
  EXPECT_TRUE(fs.Write("/store/run1/f.root", 0, "payload"));
  const Result<std::string> data = fs.Read("/store/run1/f.root", 0, 64);
  ASSERT_TRUE(data);
  EXPECT_EQ(data.value(), "payload");
  EXPECT_EQ(fs.Stat("/store/run1/f.root")->size, 7u);
  const auto listed = fs.List("/store");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0], "/store/run1/f.root");
  EXPECT_TRUE(fs.Unlink("/store/run1/f.root"));
  EXPECT_EQ(fs.StateOf("/store/run1/f.root"), oss::FileState::kAbsent);
}

TEST_F(LocalOssTest, RejectsPathEscape) {
  oss::LocalOss fs(root_);
  EXPECT_EQ(fs.Create("/../escape").code(), proto::XrdErr::kInvalid);
  EXPECT_EQ(fs.Write("/a/../../escape", 0, "x").code(), proto::XrdErr::kInvalid);
}

}  // namespace
}  // namespace scalla
