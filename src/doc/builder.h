#ifndef MMCONF_DOC_BUILDER_H_
#define MMCONF_DOC_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "cpnet/cpnet.h"
#include "doc/document.h"

namespace mmconf::doc {

/// Convenience tree builder for documents.
class TreeBuilder {
 public:
  explicit TreeBuilder(std::string root_name);

  /// Adds a composite under `parent` (by name). Returns *this for
  /// chaining; errors are deferred and reported by Build().
  TreeBuilder& Group(const std::string& parent, const std::string& name);

  /// Adds a primitive leaf under `parent`.
  TreeBuilder& Leaf(const std::string& parent, const std::string& name,
                    ContentRef content,
                    std::vector<MMPresentation> presentations);

  /// Finishes the tree and creates the document (with default
  /// preferences; refine via the document's elicitation API).
  Result<MultimediaDocument> Build();

 private:
  CompositeMultimediaComponent* FindComposite(const std::string& name,
                                              MultimediaComponent* node);

  std::unique_ptr<CompositeMultimediaComponent> root_;
  Status deferred_error_;
};

/// Standard presentation domains. Images: flat/segmented/thumb/icon/hidden.
std::vector<MMPresentation> ImagePresentations();
std::vector<MMPresentation> AudioPresentations();  ///< audio/summary/hidden
std::vector<MMPresentation> TextPresentations();   ///< text/hidden

/// The running example of the paper: a patient medical record with CT and
/// X-ray images, test results, voice fragments and notes, organized
/// hierarchically, with the author preferences of Section 4 ("the author
/// of the document may prefer to present a CT image together with a voice
/// fragment of expertise... if a CT image is presented, then a correlated
/// X-ray image is preferred by the author to be hidden, or to be
/// presented as a small icon"). `content_bytes_scale` scales the content
/// sizes used by the delivery cost model.
Result<MultimediaDocument> MakeMedicalRecordDocument(
    size_t content_bytes_scale = 1);

/// The exact worked CP-net of the paper's Figure 2: five binary variables
/// c1..c5 with
///   c1: c1^1 > c1^2            (unconditional)
///   c2: c2^2 > c2^1            (unconditional)
///   c3 <- {c1, c2}: agree -> c3^1 > c3^2 ; disagree -> c3^2 > c3^1
///   c4 <- {c3}: c3^1 -> c4^1 > c4^2 ; c3^2 -> c4^2 > c4^1
///   c5 <- {c3}: c3^1 -> c5^1 > c5^2 ; c3^2 -> c5^2 > c5^1
/// Value index 0 is the superscript-1 value.
cpnet::CpNet MakePaperFigure2Net();

/// Random acyclic CP-net generator for property tests and scaling
/// benches: `num_vars` variables with domains of 2..max_domain values,
/// each with up to `max_parents` parents drawn from earlier variables,
/// and random complete CPTs. The result is validated.
cpnet::CpNet MakeRandomCpNet(int num_vars, int max_parents, int max_domain,
                             Rng& rng);

/// Random document generator: a tree of `num_leaves` primitives under
/// `num_groups` composites with random conditional author preferences —
/// workload for the presentation/prefetch benches.
Result<MultimediaDocument> MakeRandomDocument(int num_groups, int num_leaves,
                                              Rng& rng);

}  // namespace mmconf::doc

#endif  // MMCONF_DOC_BUILDER_H_
