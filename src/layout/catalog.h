// File catalog: what content the system stores.
//
// Files are divided into blocks of equal *duration* (the block play time). In
// a single-bitrate system every block is the configured maximum size and
// slower files waste the difference as internal fragmentation; in a
// multiple-bitrate system block sizes are proportional to the file bitrate
// (§2.2). Both behaviours are captured by BlockBytes().

#ifndef SRC_LAYOUT_CATALOG_H_
#define SRC_LAYOUT_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/common/result.h"
#include "src/common/time.h"
#include "src/common/units.h"

namespace tiger {

struct FileInfo {
  FileId id;
  std::string name;
  int64_t bitrate_bps = 0;
  int64_t block_count = 0;
  // Where block 0 lives; successive blocks stripe onto successive disks.
  DiskId start_disk;
  // Bytes of real content per block (bitrate * block play time).
  int64_t content_bytes_per_block = 0;
  // Bytes allocated on disk per block. Equals content bytes in a
  // multiple-bitrate system; equals the configured maximum in a
  // single-bitrate system (internal fragmentation).
  int64_t allocated_bytes_per_block = 0;
};

class Catalog {
 public:
  Catalog(Duration block_play_time, int64_t max_block_bytes, bool single_bitrate)
      : block_play_time_(block_play_time),
        max_block_bytes_(max_block_bytes),
        single_bitrate_(single_bitrate) {
    TIGER_CHECK(block_play_time > Duration::Zero());
    TIGER_CHECK(max_block_bytes > 0);
  }

  // Adds a file of `duration` at `bitrate_bps` whose first block lands on
  // `start_disk`. Fails if the bitrate exceeds the configured maximum.
  Result<FileId> AddFile(std::string name, int64_t bitrate_bps, Duration duration,
                         DiskId start_disk);

  const FileInfo& Get(FileId id) const {
    TIGER_CHECK(id.value() < files_.size()) << "unknown file " << id;
    return files_[id.value()];
  }
  bool Contains(FileId id) const { return id.valid() && id.value() < files_.size(); }

  size_t size() const { return files_.size(); }
  const std::vector<FileInfo>& files() const { return files_; }

  Duration block_play_time() const { return block_play_time_; }
  int64_t max_block_bytes() const { return max_block_bytes_; }
  bool single_bitrate() const { return single_bitrate_; }

  // Total bytes of primary content across the catalog (allocated sizes).
  int64_t TotalPrimaryBytes() const;

 private:
  Duration block_play_time_;
  int64_t max_block_bytes_;
  bool single_bitrate_;
  std::vector<FileInfo> files_;
};

}  // namespace tiger

#endif  // SRC_LAYOUT_CATALOG_H_
