#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "persist/atomic_file.h"
#include "persist/mmap_file.h"
#include "persist/mmap_snapshot.h"
#include "util/check.h"

namespace rebert::tensor {

namespace {

constexpr char kMagic[4] = {'R', 'B', 'T', 'W'};
// A trailing FNV-1a checksum covers the body (everything between the
// 8-byte magic+version prefix and the 8-byte trailer), so a clipped or
// bit-flipped checkpoint is rejected before any tensor is filled.
constexpr std::uint32_t kVersion = 2;

/// Stream writer that folds every body byte into a running checksum, so a
/// multi-hundred-MB checkpoint never needs a second in-memory copy.
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(std::ostream& out) : out_(out) {}

  void bytes(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    sum_ = util::fnv1a_update(sum_, data, size);
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
  std::uint64_t checksum() const { return sum_; }

 private:
  std::ostream& out_;
  std::uint64_t sum_ = util::kFnv1aInit;
};

/// Checkpoint reads off a validated mapping, with located failures: every
/// truncation error reports where in the file the read stopped and how
/// large the file is, so a half-written or clipped checkpoint is
/// diagnosable from the message alone ("truncated ... at offset 1234 of
/// 5678 bytes"). The cursor never reads a byte past `limit`.
class MappedReader {
 public:
  MappedReader(const persist::MmapFile& file, std::size_t limit)
      : file_(file), limit_(limit) {}

  std::size_t offset() const { return offset_; }

  void bytes(void* dst, std::size_t n, const char* what) {
    REBERT_CHECK_MSG(offset_ <= limit_ && n <= limit_ - offset_,
                     "truncated checkpoint " << file_.path() << ": " << what
                                             << " at offset " << offset_
                                             << " of " << file_.size()
                                             << " bytes");
    if (n > 0) std::memcpy(dst, file_.bytes(offset_, n), n);
    offset_ += n;
  }

  void skip(std::size_t n) { offset_ += n; }

  std::uint32_t u32(const char* what) {
    std::uint32_t v = 0;
    bytes(&v, sizeof(v), what);
    return v;
  }

 private:
  const persist::MmapFile& file_;
  std::size_t limit_;  // first byte the body must not touch (the trailer)
  std::size_t offset_ = 0;
};

}  // namespace

void save_parameters(const std::vector<const Parameter*>& params,
                     const std::string& path) {
  // Atomic write: a crash (or ENOSPC) mid-save must leave any previous
  // checkpoint at `path` intact instead of a truncated file that
  // hard-fails the next load_parameters.
  persist::AtomicFileWriter writer(path);
  std::ostream& out = writer.stream();
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  ChecksummedWriter body(out);
  body.u32(static_cast<std::uint32_t>(params.size()));
  for (const Parameter* p : params) {
    REBERT_CHECK_MSG(!p->name.empty(), "unnamed parameter cannot be saved");
    body.u32(static_cast<std::uint32_t>(p->name.size()));
    body.bytes(p->name.data(), p->name.size());
    body.u32(static_cast<std::uint32_t>(p->value.rank()));
    for (int d = 0; d < p->value.rank(); ++d)
      body.u32(static_cast<std::uint32_t>(p->value.dim(d)));
    body.bytes(p->value.data(),
               static_cast<std::size_t>(p->value.numel()) * sizeof(float));
  }
  const std::uint64_t checksum = body.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  writer.commit();  // flush + fsync + rename; errno-detailed on failure
}

void load_parameters(const std::vector<Parameter*>& params,
                     const std::string& path) {
  // The whole file is mapped and validated (magic, version, checksum)
  // before a single tensor is filled; parsing then runs straight off the
  // mapping with a bounds-checked cursor, no stream buffering.
  persist::MmapFile file;
  std::string open_error;
  REBERT_CHECK_MSG(file.open(path, &open_error),
                   "cannot open checkpoint " << path << ": " << open_error);
  constexpr std::size_t kPrefixBytes = sizeof(kMagic) + sizeof(std::uint32_t);
  REBERT_CHECK_MSG(file.size() >= kPrefixBytes,
                   "truncated checkpoint " << path << ": header at offset 0"
                                           << " of " << file.size()
                                           << " bytes");
  REBERT_CHECK_MSG(std::memcmp(file.bytes(0, sizeof(kMagic)), kMagic,
                               sizeof(kMagic)) == 0,
                   path << " is not a ReBERT checkpoint");
  std::uint32_t version = 0;
  std::memcpy(&version, file.bytes(sizeof(kMagic), sizeof(version)),
              sizeof(version));
  REBERT_CHECK_MSG(version == kVersion,
                   "unsupported checkpoint version "
                       << version << " (this build reads version "
                       << kVersion << " only)");

  REBERT_CHECK_MSG(file.size() >= kPrefixBytes + sizeof(std::uint64_t),
                   "truncated checkpoint "
                       << path << ": checksum trailer at offset "
                       << kPrefixBytes << " of " << file.size() << " bytes");
  const std::size_t body_end = file.size() - sizeof(std::uint64_t);
  std::uint64_t expected = 0;
  std::memcpy(&expected, file.bytes(body_end, sizeof(expected)),
              sizeof(expected));
  const std::uint64_t actual =
      util::fnv1a(file.bytes(kPrefixBytes, body_end - kPrefixBytes),
                     body_end - kPrefixBytes);
  REBERT_CHECK_MSG(actual == expected,
                   "corrupt checkpoint "
                       << path << ": checksum mismatch over the body at "
                       << "offset " << kPrefixBytes << " of " << file.size()
                       << " bytes");

  MappedReader reader(file, body_end);
  reader.skip(kPrefixBytes);  // magic + version, validated above
  const std::uint32_t count = reader.u32("parameter count");

  std::unordered_map<std::string, Parameter*> by_name;
  for (Parameter* p : params) {
    REBERT_CHECK_MSG(by_name.emplace(p->name, p).second,
                     "duplicate parameter name " << p->name);
  }

  std::size_t loaded = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = reader.u32("parameter name length");
    std::string name(name_len, '\0');
    reader.bytes(name.data(), name_len, "parameter name");
    const std::uint32_t rank = reader.u32("tensor rank");
    std::vector<int> shape(rank);
    std::int64_t numel = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      shape[d] = static_cast<int>(reader.u32("tensor shape"));
      numel *= shape[d];
    }
    auto it = by_name.find(name);
    REBERT_CHECK_MSG(it != by_name.end(),
                     "checkpoint parameter '" << name
                                              << "' not present in model");
    Parameter& p = *it->second;
    REBERT_CHECK_MSG(p.value.shape() == shape,
                     "shape mismatch for '" << name << "': model "
                                            << p.value.shape_string());
    reader.bytes(p.value.data(),
                 static_cast<std::size_t>(numel) * sizeof(float),
                 "tensor data");
    ++loaded;
  }
  REBERT_CHECK_MSG(loaded == params.size(),
                   "checkpoint has " << loaded << " of " << params.size()
                                     << " model parameters");
}

}  // namespace rebert::tensor
