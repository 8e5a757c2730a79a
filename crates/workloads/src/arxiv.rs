//! Crowd tagging of paper metadata (the *Arxiv* application, paper §4.1).
//!
//! In this application the browser is used as a user interface rather than a
//! processing environment: each input is the metadata of one paper and the
//! "processing" is a human volunteer deciding whether the paper is relevant.
//! The paper excludes it from the throughput evaluation for that reason; the
//! reproduction keeps it as an example of the dataflow, with a simulated
//! volunteer whose decisions are deterministic keyword matches and whose
//! response time is human-scale.

use std::time::Duration;

/// Metadata of one paper to be tagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperMeta {
    /// Stable identifier (for example `1803.08426`).
    pub id: String,
    /// Title of the paper.
    pub title: String,
    /// Abstract of the paper.
    pub abstract_text: String,
}

/// The verdict of a volunteer on one paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Worth reading for the project at hand.
    Interesting,
    /// Not relevant.
    NotRelevant,
    /// The volunteer could not decide.
    Unsure,
}

/// A simulated volunteer: tags papers by keyword matching, with a configurable
/// per-paper "reading time" so deployments exhibit human-scale latencies.
#[derive(Debug, Clone)]
pub struct SimulatedTagger {
    /// Keywords that make a paper interesting.
    pub interests: Vec<String>,
    /// Keywords that make a paper irrelevant.
    pub rejections: Vec<String>,
    /// Simulated reading time per paper.
    pub reading_time: Duration,
}

impl Default for SimulatedTagger {
    fn default() -> Self {
        Self {
            interests: vec!["volunteer".into(), "browser".into(), "stream".into()],
            rejections: vec!["blockchain marketing".into()],
            reading_time: Duration::ZERO,
        }
    }
}

impl SimulatedTagger {
    /// Tags one paper. Sleeps for the configured reading time to emulate the
    /// human in the loop.
    pub fn tag(&self, paper: &PaperMeta) -> Tag {
        if !self.reading_time.is_zero() {
            std::thread::sleep(self.reading_time);
        }
        let text = format!("{} {}", paper.title, paper.abstract_text).to_lowercase();
        if self.rejections.iter().any(|k| text.contains(&k.to_lowercase())) {
            Tag::NotRelevant
        } else if self.interests.iter().any(|k| text.contains(&k.to_lowercase())) {
            Tag::Interesting
        } else {
            Tag::Unsure
        }
    }
}

/// A small corpus of synthetic paper metadata used by the examples.
pub fn sample_corpus(n: usize) -> Vec<PaperMeta> {
    let topics = [
        (
            "Personal volunteer computing in browsers",
            "We present a tool to use volunteer devices through their browser.",
        ),
        (
            "A new cache coherence protocol",
            "We evaluate a directory protocol on a simulated multicore.",
        ),
        (
            "Streaming abstractions for distributed systems",
            "A declarative stream model simplifies distribution.",
        ),
        (
            "Deep learning for image segmentation",
            "A convolutional architecture for satellite images.",
        ),
        ("Blockchain marketing strategies", "How to sell more tokens with less effort."),
    ];
    (0..n)
        .map(|i| {
            let (title, abstract_text) = topics[i % topics.len()];
            PaperMeta {
                id: format!("25{:02}.{:05}", i % 12 + 1, i),
                title: title.to_string(),
                abstract_text: abstract_text.to_string(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_matching_tags_papers() {
        let tagger = SimulatedTagger::default();
        let corpus = sample_corpus(5);
        assert_eq!(tagger.tag(&corpus[0]), Tag::Interesting); // volunteer computing
        assert_eq!(tagger.tag(&corpus[1]), Tag::Unsure); // cache coherence
        assert_eq!(tagger.tag(&corpus[2]), Tag::Interesting); // streaming
        assert_eq!(tagger.tag(&corpus[3]), Tag::Unsure); // deep learning
        assert_eq!(tagger.tag(&corpus[4]), Tag::NotRelevant); // blockchain marketing
    }

    #[test]
    fn corpus_is_deterministic_and_sized() {
        assert_eq!(sample_corpus(12).len(), 12);
        assert_eq!(sample_corpus(3), sample_corpus(3));
        assert_ne!(sample_corpus(2)[0].id, sample_corpus(2)[1].id);
    }

    #[test]
    fn reading_time_is_respected() {
        let tagger = SimulatedTagger {
            reading_time: Duration::from_millis(30),
            ..SimulatedTagger::default()
        };
        let paper = &sample_corpus(1)[0];
        let start = std::time::Instant::now();
        tagger.tag(paper);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
