#include "storage/snapshot.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "storage/format.h"

namespace evorec::storage {

namespace {

// Fixed-size snapshot header layout; docs/STORAGE.md is the contract.
constexpr size_t kHeaderSize = 52;       // incl. trailing header CRC
constexpr size_t kHeaderCrcRange = 48;   // bytes covered by that CRC

void AppendSection(std::string& out, uint32_t section_id,
                   const std::string& payload) {
  PutFixed32(out, section_id);
  PutFixed64(out, payload.size());
  out.append(payload);
  PutFixed32(out, Crc32(payload));
}

Status ReadSection(ByteReader& reader, uint32_t expected_id,
                   std::string_view* payload) {
  uint32_t section_id = 0;
  uint64_t payload_len = 0;
  if (!reader.ReadFixed32(&section_id) || !reader.ReadFixed64(&payload_len)) {
    return InvalidArgumentError("snapshot: truncated section header");
  }
  if (section_id != expected_id) {
    return InvalidArgumentError("snapshot: expected section " +
                                std::to_string(expected_id) + ", found " +
                                std::to_string(section_id));
  }
  if (payload_len > reader.remaining()) {
    return InvalidArgumentError("snapshot: section " +
                                std::to_string(section_id) +
                                " truncated (payload)");
  }
  if (!reader.ReadBytes(static_cast<size_t>(payload_len), payload)) {
    return InvalidArgumentError("snapshot: section " +
                                std::to_string(section_id) +
                                " truncated (payload)");
  }
  uint32_t stored_crc = 0;
  if (!reader.ReadFixed32(&stored_crc)) {
    return InvalidArgumentError("snapshot: section " +
                                std::to_string(section_id) +
                                " truncated (checksum)");
  }
  if (Crc32(*payload) != stored_crc) {
    return InvalidArgumentError("snapshot: section " +
                                std::to_string(section_id) +
                                " checksum mismatch");
  }
  return OkStatus();
}

}  // namespace

std::string EncodeSnapshot(const rdf::TripleStore& store,
                           const rdf::Dictionary& dictionary,
                           uint32_t version_id, uint64_t fingerprint) {
  // A transient merged scan (SPO order): nothing stays memoised on the
  // store, so saving a version leaves its footprint unchanged.
  const std::vector<rdf::Triple> spo = store.Match(rdf::TriplePattern{});

  std::string terms;
  for (rdf::TermId id = 0; id < dictionary.size(); ++id) {
    EncodeTerm(terms, dictionary.term(id));
  }
  std::string triples;
  EncodeTripleRun(triples, spo, /*sorted=*/true);

  std::string out;
  out.reserve(kHeaderSize + terms.size() + triples.size() + 32);
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutFixed32(out, kFormatVersion);
  PutFixed32(out, 0);  // flags
  PutFixed32(out, version_id);
  PutFixed32(out, 0);  // reserved
  PutFixed64(out, fingerprint);
  PutFixed64(out, dictionary.size());
  PutFixed64(out, spo.size());
  PutFixed32(out, Crc32(std::string_view(out.data(), kHeaderCrcRange)));

  AppendSection(out, kSectionTerms, terms);
  AppendSection(out, kSectionTriples, triples);
  return out;
}

namespace {

Result<SnapshotInfo> ParseHeader(ByteReader& reader, std::string_view bytes) {
  std::string_view magic;
  if (!reader.ReadBytes(sizeof(kSnapshotMagic), &magic) ||
      std::memcmp(magic.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return InvalidArgumentError("snapshot: bad magic (not a snapshot file)");
  }
  uint32_t format_version = 0;
  uint32_t flags = 0;
  uint32_t reserved = 0;
  SnapshotInfo info;
  if (!reader.ReadFixed32(&format_version) || !reader.ReadFixed32(&flags) ||
      !reader.ReadFixed32(&info.version_id) || !reader.ReadFixed32(&reserved) ||
      !reader.ReadFixed64(&info.fingerprint) ||
      !reader.ReadFixed64(&info.term_count) ||
      !reader.ReadFixed64(&info.triple_count)) {
    return InvalidArgumentError("snapshot: truncated header");
  }
  if (format_version != kFormatVersion) {
    return InvalidArgumentError("snapshot: unsupported format version " +
                                std::to_string(format_version) +
                                " (reader supports " +
                                std::to_string(kFormatVersion) + ")");
  }
  uint32_t stored_crc = 0;
  if (!reader.ReadFixed32(&stored_crc)) {
    return InvalidArgumentError("snapshot: truncated header");
  }
  if (Crc32(bytes.substr(0, kHeaderCrcRange)) != stored_crc) {
    return InvalidArgumentError("snapshot: header checksum mismatch");
  }
  return info;
}

}  // namespace

Result<SnapshotInfo> PeekSnapshotInfo(std::string_view bytes) {
  ByteReader reader(bytes);
  return ParseHeader(reader, bytes);
}

bool LooksLikeSnapshot(std::string_view bytes) {
  return bytes.size() >= sizeof(kSnapshotMagic) &&
         std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) == 0;
}

Result<DecodedSnapshot> DecodeSnapshot(std::string_view bytes) {
  ByteReader reader(bytes);
  auto header = ParseHeader(reader, bytes);
  if (!header.ok()) return header.status();
  DecodedSnapshot decoded;
  decoded.info = *header;

  std::string_view terms_payload;
  EVOREC_RETURN_IF_ERROR(ReadSection(reader, kSectionTerms, &terms_payload));
  decoded.dictionary = std::make_shared<rdf::Dictionary>();
  {
    ByteReader terms(terms_payload);
    rdf::Term term;
    for (uint64_t id = 0; id < decoded.info.term_count; ++id) {
      if (!DecodeTerm(terms, &term)) {
        return InvalidArgumentError("snapshot: malformed term " +
                                    std::to_string(id));
      }
      // A duplicate term in a corrupt table would intern to the
      // earlier id; the mismatch surfaces it.
      if (decoded.dictionary->Intern(term) != static_cast<rdf::TermId>(id)) {
        return InvalidArgumentError("snapshot: duplicate term " +
                                    std::to_string(id) + " in term table");
      }
    }
    if (!terms.empty()) {
      return InvalidArgumentError("snapshot: trailing bytes in term table");
    }
  }

  std::string_view triples_payload;
  EVOREC_RETURN_IF_ERROR(
      ReadSection(reader, kSectionTriples, &triples_payload));
  std::vector<rdf::Triple> spo;
  {
    ByteReader triples(triples_payload);
    if (!DecodeTripleRun(triples, decoded.info.triple_count, /*sorted=*/true,
                         &spo)) {
      return InvalidArgumentError("snapshot: malformed SPO run");
    }
    if (!triples.empty()) {
      return InvalidArgumentError("snapshot: trailing bytes in SPO run");
    }
  }
  // Triples must reference the term table they shipped with.
  const rdf::TermId term_count =
      static_cast<rdf::TermId>(decoded.info.term_count);
  for (const rdf::Triple& t : spo) {
    if (t.subject >= term_count || t.predicate >= term_count ||
        t.object >= term_count) {
      return InvalidArgumentError("snapshot: triple references term id "
                                  "beyond the term table");
    }
  }
  decoded.store = rdf::TripleStore::FromSorted(std::move(spo));

  if (!reader.empty()) {
    return InvalidArgumentError("snapshot: trailing bytes after last section");
  }
  return decoded;
}

Status SaveSnapshot(const std::string& path, const rdf::TripleStore& store,
                    const rdf::Dictionary& dictionary, uint32_t version_id,
                    uint64_t fingerprint, const SnapshotOptions& options) {
  return WriteFileAtomic(path,
                         EncodeSnapshot(store, dictionary, version_id,
                                        fingerprint),
                         options.sync, options.env);
}

Result<DecodedSnapshot> LoadSnapshot(const std::string& path, Env* env) {
  auto bytes = ReadFileToString(path, env);
  if (!bytes.ok()) return bytes.status();
  return DecodeSnapshot(*bytes);
}

}  // namespace evorec::storage
