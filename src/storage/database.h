#ifndef MMCONF_STORAGE_DATABASE_H_
#define MMCONF_STORAGE_DATABASE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/blob_store.h"
#include "storage/catalog.h"
#include "storage/object_store.h"
#include "storage/object_table.h"

namespace mmconf::storage {

/// The database-server tier of the paper's Fig. 1 architecture: a facade
/// over the catalog (type registry), the typed object tables, and the BLOB
/// store. "This module is responsible for storing and fetching multimedia
/// objects from the database."
///
/// The standard schema mirrors the paper's Fig. 7:
///  - Image:  quality, texts, cm metadata + a data BLOB
///  - Audio:  filename, sectors + a data BLOB
///  - Cmp:    (compressed/layered payloads) filename, filesize,
///            currentposition + header and data BLOBs
class DatabaseServer : public ObjectStore {
 public:
  DatabaseServer() = default;

  DatabaseServer(const DatabaseServer&) = delete;
  DatabaseServer& operator=(const DatabaseServer&) = delete;

  /// Registers the Fig. 7 standard types ("Image", "Audio", "Cmp",
  /// "Text"). Idempotent setup helper; fails only on internal errors.
  Status RegisterStandardTypes() override;

  /// Registers an additional media type (the schema-evolution path the
  /// paper designed Fig. 7 for). `blob_fields` of the schema must have
  /// FieldType::kBlob.
  Status RegisterType(const MediaTypeEntry& entry,
                      std::vector<FieldDef> table_schema) override;

  bool HasType(const std::string& type_name) const override {
    return catalog_.HasType(type_name);
  }

  /// Stores an object: blob payloads are written to the BLOB store and
  /// their ids substituted into the record's blob columns.
  /// `blob_payloads` maps blob column name -> payload bytes; scalar
  /// columns come in `fields`.
  Result<ObjectRef> Store(
      const std::string& type, std::map<std::string, FieldValue> fields,
      const std::map<std::string, Bytes>& blob_payloads) override;

  /// Stores an object under a caller-chosen id (AlreadyExists if taken,
  /// InvalidArgument for id 0). The WAL replay and shard-routing paths
  /// use this so object ids are assigned once, by the facade, and
  /// reproduce exactly when a log is replayed onto a fresh server.
  Result<ObjectRef> StoreWithId(
      const std::string& type, ObjectId id,
      std::map<std::string, FieldValue> fields,
      const std::map<std::string, Bytes>& blob_payloads);

  /// Fetches the scalar record of an object.
  Result<ObjectRecord> FetchRecord(const ObjectRef& ref) const override;

  /// Fetches one blob column's payload.
  Result<Bytes> FetchBlob(const ObjectRef& ref,
                          const std::string& blob_field) const override;

  /// Fetches a byte range of one blob column (progressive delivery).
  Result<Bytes> FetchBlobRange(const ObjectRef& ref,
                               const std::string& blob_field, size_t offset,
                               size_t length) const override;

  /// Size in bytes of one blob column's payload.
  Result<size_t> BlobSize(const ObjectRef& ref,
                          const std::string& blob_field) const override;

  /// Updates scalar columns and/or replaces blob payloads.
  Status Modify(const ObjectRef& ref,
                const std::map<std::string, FieldValue>& fields,
                const std::map<std::string, Bytes>& blob_payloads) override;

  /// Deletes an object and all blobs it references.
  Status Delete(const ObjectRef& ref) override;

  /// Lists all objects of a type.
  Result<std::vector<ObjectRef>> List(
      const std::string& type) const override;

  /// Serializes the whole database (catalog, tables, blob payloads) with
  /// a trailing CRC32C. ObjectRefs remain valid across a
  /// Serialize/LoadFrom round trip; blob ids are remapped internally.
  Bytes Serialize() const;

  /// Restores a serialized database into this (empty, freshly
  /// constructed) instance. Corruption, never a crash, on a truncated or
  /// damaged snapshot; FailedPrecondition if this instance already holds
  /// types.
  Status LoadFrom(const Bytes& snapshot);

  const Catalog& catalog() const { return catalog_; }
  const BlobStore& blob_store() const { return blobs_; }
  BlobStore& mutable_blob_store() { return blobs_; }

 private:
  Result<BlobId> BlobIdOf(const ObjectRef& ref,
                          const std::string& blob_field) const;

  Catalog catalog_;
  BlobStore blobs_;
};

}  // namespace mmconf::storage

#endif  // MMCONF_STORAGE_DATABASE_H_
