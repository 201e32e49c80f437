#include "version/recovery.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/env.h"

namespace evorec::version {

Status SaveVersionSnapshot(const VersionedKnowledgeBase& vkb, VersionId v,
                           const std::string& path,
                           const storage::SnapshotOptions& options) {
  auto snapshot = vkb.Snapshot(v);
  if (!snapshot.ok()) return snapshot.status();
  auto handle = vkb.Handle(v);
  if (!handle.ok()) return handle.status();
  return storage::SaveSnapshot(path, (*snapshot)->store(),
                               (*snapshot)->dictionary(), v,
                               handle->fingerprint, options);
}

namespace {

// Appends a record's dictionary tail, verifying id alignment. Terms
// the dictionary already holds (a snapshot saved after this record's
// commit) must match byte-for-byte; new ones must intern to exactly
// the ids the record claims.
Status ApplyDictionaryTail(const storage::DeltaRecord& record,
                           rdf::Dictionary& dictionary) {
  if (record.first_term_id > dictionary.size()) {
    return FailedPreconditionError(
        "recovery: log record " + std::to_string(record.version_id) +
        " starts its dictionary tail at term " +
        std::to_string(record.first_term_id) + " but the dictionary has " +
        std::to_string(dictionary.size()) +
        " terms (snapshot/log mismatch)");
  }
  for (size_t i = 0; i < record.new_terms.size(); ++i) {
    const rdf::TermId expected =
        record.first_term_id + static_cast<rdf::TermId>(i);
    if (expected < dictionary.size()) {
      if (!(dictionary.term(expected) == record.new_terms[i])) {
        return FailedPreconditionError(
            "recovery: term " + std::to_string(expected) +
            " differs between the snapshot dictionary and log record " +
            std::to_string(record.version_id));
      }
      continue;
    }
    if (dictionary.Intern(record.new_terms[i]) != expected) {
      return FailedPreconditionError(
          "recovery: term " + std::to_string(expected) + " of log record " +
          std::to_string(record.version_id) +
          " interned to an unexpected id (duplicate in tail)");
    }
  }
  return OkStatus();
}

/// Replays the log image on top of `recovered` (whose vkb holds the
/// restored base). Failure codes carry the diagnosis:
/// kInvalidArgument = the log itself is corrupt (fatal for any base),
/// kFailedPrecondition = this base and the log disagree (try another).
Status ReplayLogInto(RecoveredKb& recovered, std::string_view log_bytes,
                     const RecoveryOptions& options) {
  VersionedKnowledgeBase& vkb = *recovered.vkb;
  rdf::Dictionary& dictionary = vkb.dictionary();
  VersionId next_expected = recovered.base_version + 1;
  storage::ReplayOptions replay;
  replay.allow_torn_tail = options.allow_torn_tail;
  return storage::ReplayLog(
      log_bytes,
      [&](storage::DeltaRecord&& record) -> Status {
        if (record.version_id <= recovered.base_version) {
          // Already folded into the snapshot; its dictionary tail must
          // be a prefix of the snapshot's table.
          if (record.first_term_id + record.new_terms.size() >
              dictionary.size()) {
            return FailedPreconditionError(
                "recovery: pre-snapshot log record " +
                std::to_string(record.version_id) +
                " references terms beyond the snapshot dictionary "
                "(snapshot/log mismatch)");
          }
          ++recovered.skipped_records;
          return OkStatus();
        }
        if (record.version_id != next_expected) {
          return FailedPreconditionError(
              "recovery: log jumps from version " +
              std::to_string(next_expected - 1) + " to " +
              std::to_string(record.version_id) +
              " (snapshot/log mismatch or gap)");
        }
        EVOREC_RETURN_IF_ERROR(ApplyDictionaryTail(record, dictionary));
        ChangeSet changes;
        changes.additions = std::move(record.additions);
        changes.removals = std::move(record.removals);
        auto committed = vkb.Commit(std::move(changes),
                                    std::move(record.author),
                                    std::move(record.message),
                                    record.timestamp);
        if (!committed.ok()) return committed.status();
        if (options.verify_fingerprints) {
          const uint64_t replayed_fp =
              vkb.Handle(*committed).value().fingerprint;
          if (replayed_fp != record.fingerprint) {
            return FailedPreconditionError(
                "recovery: fingerprint chain diverges at version " +
                std::to_string(record.version_id) +
                " (snapshot and log are from different histories)");
          }
        }
        ++next_expected;
        ++recovered.replayed_commits;
        return OkStatus();
      },
      replay);
}

/// Turns a decoded snapshot into the base of a RecoveredKb.
RecoveredKb BuildBase(storage::DecodedSnapshot&& decoded) {
  RecoveredKb recovered;
  recovered.base_version = decoded.info.version_id;
  // The bulk sorted-load path: the decoded SPO run becomes the base
  // store directly, and the stored fingerprint seeds the chain.
  rdf::KnowledgeBase base(decoded.dictionary, std::move(decoded.store));
  recovered.vkb = std::make_unique<VersionedKnowledgeBase>(
      VersionedKnowledgeBase::WithBaseFingerprint(std::move(base),
                                                  decoded.info.fingerprint));
  return recovered;
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

constexpr std::string_view kCheckpointPrefix = "checkpoint-";
constexpr std::string_view kCheckpointSuffix = ".snap";

}  // namespace

Result<RecoveredKb> RecoverFromDisk(const std::string& snapshot_path,
                                    const std::string& log_path,
                                    const RecoveryOptions& options) {
  auto decoded = storage::LoadSnapshot(snapshot_path, options.env);
  if (!decoded.ok()) return decoded.status();
  RecoveredKb recovered = BuildBase(std::move(*decoded));
  if (log_path.empty()) return recovered;

  auto log_bytes = ReadFileToString(log_path, options.env);
  if (!log_bytes.ok()) return log_bytes.status();
  EVOREC_RETURN_IF_ERROR(ReplayLogInto(recovered, *log_bytes, options));
  return recovered;
}

std::string CheckpointPath(const std::string& dir, VersionId v) {
  std::string digits = std::to_string(v);
  digits.insert(0, digits.size() < 10 ? 10 - digits.size() : 0, '0');
  return dir + "/" + std::string(kCheckpointPrefix) + digits +
         std::string(kCheckpointSuffix);
}

Result<std::vector<std::string>> ListCheckpoints(const std::string& dir,
                                                 Env* env) {
  if (env == nullptr) env = Env::Default();
  auto names = env->ListDir(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) {
      return std::vector<std::string>{};
    }
    return names.status();
  }
  std::vector<std::string> paths;
  for (const std::string& name : *names) {
    if (StartsWith(name, kCheckpointPrefix) &&
        EndsWith(name, kCheckpointSuffix)) {
      paths.push_back(dir + "/" + name);
    }
  }
  std::sort(paths.begin(), paths.end());  // zero-padded: version order
  return paths;
}

Status SaveCheckpoint(const VersionedKnowledgeBase& vkb, VersionId v,
                      const std::string& dir, size_t keep,
                      const storage::SnapshotOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  EVOREC_RETURN_IF_ERROR(env->CreateDir(dir));
  EVOREC_RETURN_IF_ERROR(
      SaveVersionSnapshot(vkb, v, CheckpointPath(dir, v), options));
  if (keep == 0) keep = 1;  // the checkpoint just written always stays
  auto checkpoints = ListCheckpoints(dir, env);
  if (!checkpoints.ok()) return checkpoints.status();
  const size_t count = checkpoints->size();
  for (size_t i = 0; count - i > keep; ++i) {
    // Pruning is best-effort: a checkpoint that will not delete is a
    // disk-space nuisance, not a durability problem.
    (void)env->RemoveFile((*checkpoints)[i]);
  }
  return OkStatus();
}

Result<RecoveredKb> RecoverFromCheckpoints(const std::string& dir,
                                           const std::string& log_path,
                                           const RecoveryOptions& options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  auto checkpoints = ListCheckpoints(dir, env);
  if (!checkpoints.ok()) return checkpoints.status();

  RecoveryReport report;
  report.checkpoints_found = checkpoints->size();

  const bool have_log = !log_path.empty() && env->FileExists(log_path);
  std::string log_bytes;
  if (have_log) {
    auto bytes = ReadFileToString(log_path, env);
    if (!bytes.ok()) return bytes.status();
    log_bytes = std::move(*bytes);
  }

  Status last_failure = OkStatus();
  for (auto it = checkpoints->rbegin(); it != checkpoints->rend(); ++it) {
    const std::string& path = *it;
    auto decoded = storage::LoadSnapshot(path, env);
    if (decoded.ok()) {
      RecoveredKb recovered = BuildBase(std::move(*decoded));
      Status replayed = have_log
                            ? ReplayLogInto(recovered, log_bytes, options)
                            : OkStatus();
      if (replayed.ok()) {
        report.checkpoint_used = path;
        report.replayed_commits = recovered.replayed_commits;
        report.skipped_records = recovered.skipped_records;
        recovered.report = std::move(report);
        return recovered;
      }
      if (replayed.code() == StatusCode::kInvalidArgument) {
        // The log itself is corrupt. No older checkpoint can cross the
        // bad record, and the snapshot that exposed it is healthy —
        // surface the log problem instead of quarantining evidence.
        return replayed;
      }
      last_failure = replayed;  // snapshot/log mismatch: blame the snapshot
    } else {
      last_failure = decoded.status();
    }
    // Quarantine: keep the bytes for post-mortem, but make sure no
    // future recovery trips over this checkpoint again.
    (void)env->RenameFile(path, path + ".corrupt");
    report.quarantined.push_back(path);
  }

  // No usable checkpoint. If the log is complete from version 1 (the
  // KB started empty and was never checkpointed, or every checkpoint
  // just failed), replay the whole history from an empty base.
  if (have_log) {
    RecoveredKb recovered;
    recovered.base_version = 0;
    recovered.vkb = std::make_unique<VersionedKnowledgeBase>();
    Status replayed = ReplayLogInto(recovered, log_bytes, options);
    if (replayed.ok()) {
      report.log_only = true;
      report.replayed_commits = recovered.replayed_commits;
      report.skipped_records = recovered.skipped_records;
      recovered.report = std::move(report);
      return recovered;
    }
    if (!last_failure.ok()) return last_failure;
    return replayed;
  }
  if (!last_failure.ok()) return last_failure;
  return NotFoundError("recovery: no checkpoints in '" + dir +
                       "' and no commit log at '" + log_path + "'");
}

std::string RecoveryReport::ToString() const {
  std::string out = "recovery: ";
  if (log_only) {
    out += "log-only replay from empty base";
  } else if (!checkpoint_used.empty()) {
    out += "restored from " + checkpoint_used;
  } else {
    out += "nothing restored";
  }
  out += "; " + std::to_string(checkpoints_found) + " checkpoint(s) found";
  out += ", " + std::to_string(quarantined.size()) + " quarantined";
  for (const std::string& path : quarantined) {
    out += "\n  quarantined: " + path + " -> " + path + ".corrupt";
  }
  out += "\n  replayed " + std::to_string(replayed_commits) +
         " commit(s), skipped " + std::to_string(skipped_records) +
         " pre-snapshot record(s)";
  return out;
}

}  // namespace evorec::version
