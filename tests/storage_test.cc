// Storage-layer unit tests: the binary I/O primitives, the snapshot
// and commit-log codecs, and — most importantly — corruption
// handling: a truncated file, a flipped byte, or a wrong magic /
// format version must each come back as a clean Status error, never
// UB (the whole file is covered by the ASan preset like every test).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "evorec_storage_" + name;
}

// ---- binary_io primitives ----

TEST(BinaryIoTest, VarintRoundTrip) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             300,
                             16383,
                             16384,
                             (1ULL << 32) - 1,
                             1ULL << 32,
                             UINT64_MAX};
  for (uint64_t v : values) {
    std::string buffer;
    PutVarint(buffer, v);
    ByteReader reader(buffer);
    uint64_t decoded = 0;
    ASSERT_TRUE(reader.ReadVarint(&decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(reader.empty());
  }
}

TEST(BinaryIoTest, VarintRejectsTruncatedAndOverlong) {
  // Lone continuation byte: truncated.
  ByteReader truncated(std::string_view("\x80", 1));
  uint64_t v = 0;
  EXPECT_FALSE(truncated.ReadVarint(&v));

  // 10 continuation bytes followed by data: > 64 bits.
  std::string overlong(10, '\x80');
  overlong.push_back('\x01');
  ByteReader reader(overlong);
  EXPECT_FALSE(reader.ReadVarint(&v));

  // 10th byte contributing more than one bit overflows u64.
  std::string overflow(9, '\xFF');
  overflow.push_back('\x02');
  ByteReader reader2(overflow);
  EXPECT_FALSE(reader2.ReadVarint(&v));
}

TEST(BinaryIoTest, ZigZagMapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  const int64_t values[] = {0, -1, 1, -64, 63, INT64_MIN, INT64_MAX};
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
    std::string buffer;
    PutZigZag(buffer, v);
    ByteReader reader(buffer);
    int64_t decoded = 0;
    ASSERT_TRUE(reader.ReadZigZag(&decoded));
    EXPECT_EQ(decoded, v);
  }
}

TEST(BinaryIoTest, FixedWidthLittleEndian) {
  std::string buffer;
  PutFixed32(buffer, 0x04030201u);
  PutFixed64(buffer, 0x0807060504030201ull);
  ASSERT_EQ(buffer.size(), 12u);
  EXPECT_EQ(buffer[0], '\x01');  // least-significant byte first
  EXPECT_EQ(buffer[4], '\x01');
  ByteReader reader(buffer);
  uint32_t f32 = 0;
  uint64_t f64 = 0;
  ASSERT_TRUE(reader.ReadFixed32(&f32));
  ASSERT_TRUE(reader.ReadFixed64(&f64));
  EXPECT_EQ(f32, 0x04030201u);
  EXPECT_EQ(f64, 0x0807060504030201ull);
}

TEST(BinaryIoTest, Crc32MatchesKnownVectorAndChains) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental chaining equals one-shot over the concatenation.
  EXPECT_EQ(Crc32("56789", Crc32("1234")), Crc32("123456789"));
}

TEST(BinaryIoTest, ReaderNeverReadsPastEnd) {
  ByteReader reader(std::string_view("ab"));
  std::string_view bytes;
  uint32_t f32 = 0;
  EXPECT_FALSE(reader.ReadFixed32(&f32));
  EXPECT_FALSE(reader.ReadBytes(3, &bytes));
  EXPECT_TRUE(reader.ReadBytes(2, &bytes));
  EXPECT_TRUE(reader.empty());
  EXPECT_FALSE(reader.Skip(1));
}

TEST(BinaryIoTest, LengthPrefixRejectsLengthBeyondBuffer) {
  std::string buffer;
  PutVarint(buffer, 1000);  // claims 1000 bytes, provides none
  ByteReader reader(buffer);
  std::string_view out;
  EXPECT_FALSE(reader.ReadLengthPrefixed(&out));
}

TEST(BinaryIoTest, FileRoundTripAndMissingFile) {
  const std::string path = TempPath("file_roundtrip.bin");
  const std::string payload = std::string("bytes\0with\0nuls", 15);
  ASSERT_TRUE(WriteFileAtomic(path, payload, /*sync=*/true).ok());
  auto read_back = ReadFileToString(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, payload);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
}

// ---- snapshot codec ----

rdf::KnowledgeBase MakeSampleKb() {
  rdf::KnowledgeBase kb;
  kb.DeclareClass("http://ex/Person");
  kb.DeclareClass("http://ex/Student");
  kb.AddIriTriple("http://ex/Student", rdf::iri::kRdfsSubClassOf,
                  "http://ex/Person");
  kb.AddIriTriple("http://ex/alice", rdf::iri::kRdfType, "http://ex/Person");
  kb.AddLiteralTriple("http://ex/alice", rdf::iri::kRdfsLabel, "Alice");
  kb.AddLiteralTriple("http://ex/alice", "http://ex/age", "30",
                      rdf::iri::kXsdInteger);
  const rdf::TermId tagged = kb.dictionary().Intern(
      rdf::Term::Literal("hello", "", "en"));
  const rdf::TermId blank = kb.dictionary().Intern(rdf::Term::Blank("b0"));
  kb.store().Add(rdf::Triple(blank, kb.vocabulary().rdfs_label, tagged));
  kb.store().Compact();
  return kb;
}

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  rdf::KnowledgeBase kb = MakeSampleKb();
  const std::string bytes =
      storage::EncodeSnapshot(kb.store(), kb.dictionary(), 7, 0xFEEDBEEFull);
  EXPECT_TRUE(storage::LooksLikeSnapshot(bytes));

  auto decoded = storage::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->info.version_id, 7u);
  EXPECT_EQ(decoded->info.fingerprint, 0xFEEDBEEFull);
  EXPECT_EQ(decoded->info.term_count, kb.dictionary().size());
  EXPECT_EQ(decoded->info.triple_count, kb.store().size());

  // Identical term table, id for id.
  ASSERT_EQ(decoded->dictionary->size(), kb.dictionary().size());
  for (rdf::TermId id = 0; id < kb.dictionary().size(); ++id) {
    EXPECT_TRUE(decoded->dictionary->term(id) == kb.dictionary().term(id))
        << "term " << id;
  }
  // Identical triples, and the decoded store serves scans (the lazy
  // secondary indexes build on demand).
  EXPECT_EQ(decoded->store.Match(rdf::TriplePattern{}),
            kb.store().Match(rdf::TriplePattern{}));
  const rdf::TermId person = kb.dictionary().Find(
      rdf::Term::Iri("http://ex/Person"));
  const rdf::TriplePattern by_object(rdf::kAnyTerm, rdf::kAnyTerm, person);
  EXPECT_EQ(decoded->store.Match(by_object), kb.store().Match(by_object));
}

TEST(SnapshotTest, EmptyStoreRoundTrips) {
  rdf::KnowledgeBase kb;  // dictionary holds just the vocabulary
  const std::string bytes =
      storage::EncodeSnapshot(kb.store(), kb.dictionary());
  auto decoded = storage::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->info.triple_count, 0u);
  EXPECT_TRUE(decoded->store.empty());
  EXPECT_EQ(decoded->dictionary->size(), kb.dictionary().size());
}

TEST(SnapshotTest, SaveLoadFileRoundTrip) {
  rdf::KnowledgeBase kb = MakeSampleKb();
  const std::string path = TempPath("snapshot.evsnap");
  storage::SnapshotOptions options;
  options.sync = true;
  ASSERT_TRUE(storage::SaveSnapshot(path, kb.store(), kb.dictionary(), 3,
                                    42, options)
                  .ok());
  auto loaded = storage::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->info.version_id, 3u);
  EXPECT_EQ(loaded->info.fingerprint, 42u);
  EXPECT_EQ(loaded->store.Match(rdf::TriplePattern{}),
            kb.store().Match(rdf::TriplePattern{}));
  std::remove(path.c_str());
  EXPECT_FALSE(storage::LoadSnapshot(path).ok());
}

TEST(SnapshotTest, PeekReadsHeaderOnly) {
  rdf::KnowledgeBase kb = MakeSampleKb();
  const std::string bytes =
      storage::EncodeSnapshot(kb.store(), kb.dictionary(), 9, 1234);
  auto info = storage::PeekSnapshotInfo(bytes);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version_id, 9u);
  EXPECT_EQ(info->fingerprint, 1234u);
  EXPECT_EQ(info->triple_count, kb.store().size());
  EXPECT_FALSE(storage::PeekSnapshotInfo("not a snapshot at all").ok());
  EXPECT_FALSE(storage::LooksLikeSnapshot("<http://x> <http://y> ..."));
}

// ---- snapshot corruption: clean errors, never UB ----

TEST(SnapshotCorruptionTest, EveryTruncationFailsCleanly) {
  rdf::KnowledgeBase kb = MakeSampleKb();
  const std::string bytes =
      storage::EncodeSnapshot(kb.store(), kb.dictionary(), 1, 99);
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = storage::DecodeSnapshot(bytes.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(SnapshotCorruptionTest, EveryFlippedByteFailsCleanly) {
  rdf::KnowledgeBase kb = MakeSampleKb();
  std::string bytes =
      storage::EncodeSnapshot(kb.store(), kb.dictionary(), 1, 99);
  // Every byte is under a CRC (header or section) or is framing whose
  // damage a checksum or structural check catches.
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    auto decoded = storage::DecodeSnapshot(bytes);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << i << " decoded";
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
  }
}

TEST(SnapshotCorruptionTest, WrongMagicAndVersionAreExplicit) {
  rdf::KnowledgeBase kb = MakeSampleKb();
  std::string bytes = storage::EncodeSnapshot(kb.store(), kb.dictionary());

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  auto no_magic = storage::DecodeSnapshot(wrong_magic);
  ASSERT_FALSE(no_magic.ok());
  EXPECT_NE(no_magic.status().message().find("magic"), std::string::npos);

  // A future format version must be refused even with a valid CRC —
  // rewrite the version field and recompute the header checksum.
  std::string future = bytes;
  future[8] = '\x02';
  std::string fixed_header = future.substr(0, 48);
  future[48] = static_cast<char>(Crc32(fixed_header) & 0xFF);
  future[49] = static_cast<char>((Crc32(fixed_header) >> 8) & 0xFF);
  future[50] = static_cast<char>((Crc32(fixed_header) >> 16) & 0xFF);
  future[51] = static_cast<char>((Crc32(fixed_header) >> 24) & 0xFF);
  auto versioned = storage::DecodeSnapshot(future);
  ASSERT_FALSE(versioned.ok());
  EXPECT_NE(versioned.status().message().find("format version"),
            std::string::npos);
}

// ---- commit log ----

storage::DeltaRecord MakeRecord(uint32_t version_id) {
  storage::DeltaRecord record;
  record.version_id = version_id;
  record.timestamp = 1000 + version_id;
  record.author = "tester";
  record.message = "commit " + std::to_string(version_id);
  record.fingerprint = 0xAB00ull + version_id;
  record.first_term_id = 11;
  record.new_terms.push_back(rdf::Term::Iri("http://ex/fresh" +
                                            std::to_string(version_id)));
  // Deliberately unsorted: log records must preserve caller order.
  record.additions = {{9, 2, 5}, {3, 7, 1}, {3, 2, 8}};
  record.removals = {{12, 1, 0}};
  return record;
}

TEST(CommitLogTest, AppendReadRoundTripPreservesOrder) {
  const std::string path = TempPath("log_roundtrip.evlog");
  std::remove(path.c_str());
  {
    auto log = storage::CommitLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint32_t v = 1; v <= 3; ++v) {
      ASSERT_TRUE(log->Append(MakeRecord(v)).ok());
    }
    EXPECT_EQ(log->records_appended(), 3u);
    ASSERT_TRUE(log->Sync().ok());
    ASSERT_TRUE(log->Close().ok());
    EXPECT_FALSE(log->Append(MakeRecord(4)).ok());  // closed
  }
  auto records = storage::ReadLog(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  for (uint32_t v = 1; v <= 3; ++v) {
    const storage::DeltaRecord& r = (*records)[v - 1];
    const storage::DeltaRecord expected = MakeRecord(v);
    EXPECT_EQ(r.version_id, expected.version_id);
    EXPECT_EQ(r.timestamp, expected.timestamp);
    EXPECT_EQ(r.author, expected.author);
    EXPECT_EQ(r.message, expected.message);
    EXPECT_EQ(r.fingerprint, expected.fingerprint);
    EXPECT_EQ(r.first_term_id, expected.first_term_id);
    ASSERT_EQ(r.new_terms.size(), 1u);
    EXPECT_TRUE(r.new_terms[0] == expected.new_terms[0]);
    EXPECT_EQ(r.additions, expected.additions);  // original order
    EXPECT_EQ(r.removals, expected.removals);
  }
  std::remove(path.c_str());
}

TEST(CommitLogTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = TempPath("log_reopen.evlog");
  std::remove(path.c_str());
  {
    auto log = storage::CommitLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeRecord(1)).ok());
  }
  {
    storage::LogOptions options;
    options.sync_on_append = true;  // exercise the fsync path
    auto log = storage::CommitLog::Open(path, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log->Append(MakeRecord(2)).ok());
  }
  auto records = storage::ReadLog(path);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].version_id, 1u);
  EXPECT_EQ((*records)[1].version_id, 2u);
  std::remove(path.c_str());
}

TEST(CommitLogTest, OpenRejectsForeignFile) {
  const std::string path = TempPath("log_foreign.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "definitely not a commit log").ok());
  auto log = storage::CommitLog::Open(path);
  EXPECT_FALSE(log.ok());
  std::remove(path.c_str());
}

// ---- commit-log corruption ----

std::string EncodeLogImage(const std::string& tag,
                           const std::vector<storage::DeltaRecord>& records) {
  const std::string path = TempPath("log_image_" + tag + ".evlog");
  std::remove(path.c_str());
  {
    auto log = storage::CommitLog::Open(path);
    EXPECT_TRUE(log.ok());
    for (const storage::DeltaRecord& r : records) {
      EXPECT_TRUE(log->Append(r).ok());
    }
  }
  auto bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok());
  std::remove(path.c_str());
  return *bytes;
}

size_t CountRecords(std::string_view bytes,
                    const storage::ReplayOptions& options, Status* status) {
  size_t count = 0;
  *status = storage::ReplayLog(
      bytes,
      [&count](storage::DeltaRecord&&) {
        ++count;
        return OkStatus();
      },
      options);
  return count;
}

TEST(CommitLogCorruptionTest, TruncationIsTornTailOrError) {
  const std::string bytes =
      EncodeLogImage("trunc2", {MakeRecord(1), MakeRecord(2)});
  const std::string one_record = EncodeLogImage("trunc1", {MakeRecord(1)});
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string_view prefix(bytes.data(), len);
    Status strict;
    const size_t strict_count = CountRecords(prefix, {}, &strict);
    // Strict mode: only clean cuts at a record boundary parse.
    if (len == one_record.size()) {
      EXPECT_TRUE(strict.ok()) << len;
      EXPECT_EQ(strict_count, 1u);
    } else if (len == 24) {  // header-only file: empty log, valid
      EXPECT_TRUE(strict.ok());
      EXPECT_EQ(strict_count, 0u);
    } else {
      EXPECT_FALSE(strict.ok()) << "strict replay of " << len
                                << "-byte prefix passed";
    }
    // Torn-tail mode: anything at or past the header recovers the
    // records before the tear.
    storage::ReplayOptions tolerant;
    tolerant.allow_torn_tail = true;
    Status torn;
    const size_t torn_count = CountRecords(prefix, tolerant, &torn);
    if (len < 24) {
      EXPECT_FALSE(torn.ok());  // even WAL recovery needs the header
    } else {
      EXPECT_TRUE(torn.ok()) << len;
      EXPECT_EQ(torn_count, len >= one_record.size() ? 1u : 0u) << len;
    }
  }
}

TEST(CommitLogCorruptionTest, EveryFlippedByteFailsStrictReplay) {
  std::string bytes = EncodeLogImage("flip", {MakeRecord(1), MakeRecord(2)});
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    Status strict;
    (void)CountRecords(bytes, {}, &strict);
    EXPECT_FALSE(strict.ok()) << "flip at byte " << i << " passed";
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
  }
}

TEST(CommitLogCorruptionTest, TornTailModeNeverDropsMiddleRecords) {
  std::string bytes = EncodeLogImage("flip_torn", {MakeRecord(1),
                                                   MakeRecord(2)});
  const size_t last_record_start =
      bytes.size() - storage::EncodeDeltaRecord(MakeRecord(2)).size();
  storage::ReplayOptions tolerant;
  tolerant.allow_torn_tail = true;
  // Record 1 occupies [24, last_record_start); its length field at
  // [28, 36) is the one region where a flip can mimic a tear (a
  // longer claimed frame "runs past EOF" exactly like a truncated
  // append would) — inherent to length-prefixed framing.
  const size_t rec1_len_field = 24 + 4;
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    Status status;
    const size_t count = CountRecords(bytes, tolerant, &status);
    const bool ambiguous =
        i >= rec1_len_field && i < rec1_len_field + 8;
    if (i < last_record_start && !ambiguous) {
      // Header, record-1 payload, or record-1 marker: damage here is
      // corruption, never a tear — tolerant replay must not silently
      // truncate history.
      EXPECT_FALSE(status.ok()) << "flip at byte " << i << " passed";
    } else if (status.ok()) {
      // Damage read as a torn tail: only complete leading records
      // survive, never a partial or reordered set.
      EXPECT_LE(count, i < last_record_start ? 0u : 1u)
          << "flip at byte " << i;
    }
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
  }
}

TEST(CommitLogTest, OpenTruncatesTornTailBeforeAppending) {
  const std::string path = TempPath("log_tear_repair.evlog");
  std::remove(path.c_str());
  {
    auto log = storage::CommitLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeRecord(1)).ok());
    ASSERT_TRUE(log->Append(MakeRecord(2)).ok());
  }
  // Crash mid-append: half of record 2 is on disk.
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  const size_t record2_size = storage::EncodeDeltaRecord(MakeRecord(2)).size();
  ASSERT_TRUE(WriteFileAtomic(
                  path, bytes->substr(0, bytes->size() - record2_size / 2))
                  .ok());
  // Reopen: the tear is truncated away, and the next append lands
  // right after record 1 — fully replayable even in strict mode.
  {
    auto log = storage::CommitLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE(log->Append(MakeRecord(3)).ok());
  }
  auto records = storage::ReadLog(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].version_id, 1u);
  EXPECT_EQ((*records)[1].version_id, 3u);
  std::remove(path.c_str());
}

TEST(CommitLogTest, OpenRefusesMidLogCorruption) {
  const std::string path = TempPath("log_corrupt_refuse.evlog");
  std::remove(path.c_str());
  {
    auto log = storage::CommitLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append(MakeRecord(1)).ok());
    ASSERT_TRUE(log->Append(MakeRecord(2)).ok());
  }
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  // Flip a byte inside record 1's *payload* (after the 24-byte file
  // header and 12 bytes of record framing): the frame stays intact,
  // the CRC fails, and record 2's bytes follow — unambiguous mid-log
  // corruption, not a tear.
  corrupted[40] = static_cast<char>(corrupted[40] ^ 0x40);
  ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());
  auto log = storage::CommitLog::Open(path);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace evorec
