#include "io/checkpoint.h"

#include <unordered_map>

namespace rl4oasd::io {

namespace {

constexpr char kMagic[4] = {'R', 'L', 'T', 'F'};

void WriteTensorHeader(const std::string& name, size_t rows, size_t cols,
                       BinaryWriter* w) {
  w->WriteString(name);
  w->WriteU64(rows);
  w->WriteU64(cols);
}

Status CheckMagicAndVersion(BinaryReader* r) {
  char magic[4];
  RL4_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return Status::IOError("not a tensor checkpoint (bad magic)");
  }
  uint32_t version;
  RL4_RETURN_NOT_OK(r->ReadU32(&version));
  if (version != kTensorFormatVersion) {
    return Status::IOError("unsupported checkpoint version " +
                           std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

void WriteRegistry(const nn::ParameterRegistry& registry, BinaryWriter* w) {
  w->WriteBytes(kMagic, 4);
  w->WriteU32(kTensorFormatVersion);
  w->WriteU32(static_cast<uint32_t>(registry.params().size()));
  // Tensors are written in logical shape and row-major order, whatever
  // their storage layout.
  for (const nn::Parameter* p : registry.params()) {
    WriteTensorHeader(p->name, p->rows(), p->cols(), w);
    for (size_t row = 0; row < p->rows(); ++row) {
      for (size_t col = 0; col < p->cols(); ++col) {
        w->WriteF32(p->value.data()[p->Offset(row, col)]);
      }
    }
  }
}

Status ReadRegistry(BinaryReader* r, nn::ParameterRegistry* registry) {
  RL4_RETURN_NOT_OK(CheckMagicAndVersion(r));
  uint32_t count;
  RL4_RETURN_NOT_OK(r->ReadU32(&count));

  std::unordered_map<std::string, nn::Parameter*> by_name;
  for (nn::Parameter* p : registry->params()) {
    if (!by_name.emplace(p->name, p).second) {
      return Status::FailedPrecondition("duplicate parameter name: " +
                                        p->name);
    }
  }
  if (count != by_name.size()) {
    return Status::IOError("checkpoint holds " + std::to_string(count) +
                           " tensors, model expects " +
                           std::to_string(by_name.size()));
  }

  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    RL4_RETURN_NOT_OK(r->ReadString(&name));
    uint64_t rows, cols;
    RL4_RETURN_NOT_OK(r->ReadU64(&rows));
    RL4_RETURN_NOT_OK(r->ReadU64(&cols));
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::IOError("checkpoint tensor not in model: " + name);
    }
    nn::Parameter* p = it->second;
    if (p->rows() != rows || p->cols() != cols) {
      return Status::IOError(
          "shape mismatch for " + name + ": checkpoint " +
          std::to_string(rows) + "x" + std::to_string(cols) + ", model " +
          std::to_string(p->rows()) + "x" + std::to_string(p->cols()));
    }
    for (size_t row = 0; row < rows; ++row) {
      for (size_t col = 0; col < cols; ++col) {
        RL4_RETURN_NOT_OK(r->ReadF32(&p->value.data()[p->Offset(row, col)]));
      }
    }
    by_name.erase(it);
  }
  // count == by_name initial size and each hit erased one entry, so an empty
  // map here means exact coverage.
  if (!by_name.empty()) {
    return Status::IOError("checkpoint repeats a tensor and misses: " +
                           by_name.begin()->first);
  }
  return Status::OK();
}

Status SaveRegistry(const nn::ParameterRegistry& registry,
                    const std::string& path) {
  BinaryWriter w;
  WriteRegistry(registry, &w);
  return w.WriteToFile(path);
}

Status LoadRegistry(const std::string& path, nn::ParameterRegistry* registry) {
  RL4_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::OpenFile(path));
  return ReadRegistry(&r, registry);
}

void WriteMatrix(const nn::Matrix& m, BinaryWriter* w) {
  w->WriteBytes(kMagic, 4);
  w->WriteU32(kTensorFormatVersion);
  w->WriteU32(1);
  WriteTensorHeader("matrix", m.rows(), m.cols(), w);
  for (size_t i = 0; i < m.size(); ++i) w->WriteF32(m.data()[i]);
}

Status ReadMatrix(BinaryReader* r, nn::Matrix* m) {
  RL4_RETURN_NOT_OK(CheckMagicAndVersion(r));
  uint32_t count;
  RL4_RETURN_NOT_OK(r->ReadU32(&count));
  if (count != 1) {
    return Status::IOError("expected a single-tensor file, found " +
                           std::to_string(count));
  }
  std::string name;
  RL4_RETURN_NOT_OK(r->ReadString(&name));
  uint64_t rows, cols;
  RL4_RETURN_NOT_OK(r->ReadU64(&rows));
  RL4_RETURN_NOT_OK(r->ReadU64(&cols));
  m->Resize(rows, cols);
  for (size_t k = 0; k < m->size(); ++k) {
    RL4_RETURN_NOT_OK(r->ReadF32(&m->data()[k]));
  }
  return Status::OK();
}

Status SaveMatrix(const nn::Matrix& m, const std::string& path) {
  BinaryWriter w;
  WriteMatrix(m, &w);
  return w.WriteToFile(path);
}

Result<nn::Matrix> LoadMatrix(const std::string& path) {
  RL4_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::OpenFile(path));
  nn::Matrix m;
  RL4_RETURN_NOT_OK(ReadMatrix(&r, &m));
  return m;
}

}  // namespace rl4oasd::io
