#ifndef GKS_COMMON_FILE_IO_H_
#define GKS_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace gks {

/// Whole-file I/O. Every file the engine persists — index files, shard
/// manifests, RT segments, the RT MANIFEST, generated
/// corpora, client reports — is read with ReadFileToString and written
/// with WriteStringToFile. The write-ahead log (index/wal.h) is the one
/// exception: it is an append log with its own per-commit fsync.

/// Reads the whole file at `path` into `*contents`. NotFound when the
/// file does not exist; IOError for any other failure.
Status ReadFileToString(const std::string& path, std::string* contents);

/// Replaces `path` with `contents`, atomically and durably: writes a
/// temporary file next to it (the target name plus a `.tmp` suffix),
/// fsyncs and closes it, renames it over `path` and fsyncs the directory.
/// A reader sees the old bytes or the new ones, never a mix, and a
/// descriptor opened on the old file keeps reading the old bytes.
/// Any failure up to and including the rename is reported with the step
/// that failed, removes the temporary file and leaves `path` as it was;
/// a failed directory fsync is reported after the new bytes are in place.
Status WriteStringToFile(const std::string& path, std::string_view contents);

/// Fsyncs the directory holding `path`, which makes a create, rename or
/// unlink of `path` durable. Filesystems that cannot fsync a directory
/// (EINVAL) count as success.
Status SyncDirOf(const std::string& path);

}  // namespace gks

#endif  // GKS_COMMON_FILE_IO_H_
